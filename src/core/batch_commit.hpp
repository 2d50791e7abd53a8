// The one batch-commit core: the commit protocol of core/durability.hpp,
// written once for every engine (Pipeline, MultiQueryEngine and
// ShardedMatchEngine; docs/ROBUSTNESS.md, "Durability & recovery").
//
// An engine's process_batch brackets its transaction with two calls:
//   open   — ingestion (the batch.corrupt site, then the screen) and the
//            WAL record of the screened batch, fsynced BEFORE the graph is
//            touched (skipped while replaying: replay re-runs logged
//            batches);
//   commit — after the engine's run_transaction and its own extras: the
//            budget ladders settle, the report's degradation, budget and
//            fault fields fill in, any server-state records and then the
//            commit marker are written (inline, or through the group
//            committer), a failed write rolls the batch back and rethrows,
//            and only a written marker advances cumulative().
// snapshot() then runs the post-commit snapshot, so a crash inside it can
// only lose the snapshot, never the batch. recover() is the restart half:
// the durable state is read, the snapshot restored and validated, the
// committed batches replayed with faults suspended, and the one integrity
// gate checks the replayed totals against the last commit marker.
//
// One batch is open at a time (the engines are single-threaded between
// batches); the screened batch open() returns stays valid until the next
// open().
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/durability.hpp"
#include "core/phases.hpp"
#include "core/recovery.hpp"

namespace gcsm {

// What an engine hands commit() once its transaction succeeded.
struct BatchClose {
  // The device budget ladders the batch ran under (one per device) and the
  // budget each one degrades. A batch that ended on the escalation rung
  // does not count toward healing.
  std::span<BudgetLadder> budgets;
  std::uint64_t budget_base = 0;
  bool escalated = false;
  // What the commit marker adds to cumulative().
  MatchStats delta;
  // Restores the pre-batch state when the marker cannot be written.
  std::function<void()> rollback;
  // kServerState payloads written (at the batch's seq) before the marker.
  std::vector<std::string> server_states = {};
  // Hand the marker to the group committer instead of writing it inline.
  bool group = false;
};

// How an engine replays at restart.
struct ReplayHooks {
  // Receives the snapshot's graph (validated when `validate` is set).
  // Null: the engine cannot replay, and a directory holding a snapshot or
  // committed batches is refused with Error(kRecovery).
  DynamicGraph* graph = nullptr;
  bool validate = false;
  // Runs one committed batch through the engine's process_batch;
  // replay_seq() is its seq.
  std::function<void(const EdgeBatch&)> batch;
  // Optional: after the snapshot restore, before the first replayed batch;
  // and after the last one, still with faults suspended.
  std::function<void()> before = {};
  std::function<void()> after = {};
};

class BatchCommit {
 public:
  BatchCommit(const DurabilityOptions& options, FaultInjector* faults);

  // Reads the durable state and replays it through `hooks` (see
  // ReplayHooks), then checks that the replay reproduces the last commit
  // marker's counters: Error(kRecovery) otherwise. With recover_on_start
  // off, the durable state is discarded instead. Call once, from the
  // engine's constructor.
  void recover(const ReplayHooks& hooks);

  // Opens a batch: counts injector fires from here, screens `batch` into
  // report.quarantine, and logs the screened batch (report.wal_seq).
  const EdgeBatch& open(const EdgeBatch& batch, bool sanitize,
                        const BatchSanitizer& sanitizer, BatchReport& report);
  // The same for a batch the engine already screened.
  const EdgeBatch& open_screened(EdgeBatch screened, BatchReport& report);

  // Closes the open batch (see the header comment).
  void commit(BatchClose close, BatchReport& report);

  // The post-commit snapshot and WAL compaction: when the interval has
  // elapsed, or at once with `force`. False when none was written, and
  // always while durability is off or replaying.
  bool snapshot(const DynamicGraph& graph, bool force = false);
  // The snapshot interval has elapsed.
  bool snapshot_due() const;

  bool replaying() const { return replaying_; }
  // The seq of the batch being replayed.
  std::uint64_t replay_seq() const { return replay_seq_; }
  // Cumulative totals across every committed batch; with durability on,
  // exactly what the last commit marker recorded.
  const durable::DurableCounters& cumulative() const { return cumulative_; }
  // During recover() only: moves the replay anchor (the totals the next
  // replayed batch adds to).
  void set_anchor(const durable::DurableCounters& a) { cumulative_ = a; }
  const RecoveredState& recovery_info() const { return info_; }
  DurabilityManager& durability() { return durability_; }

 private:
  // Step 1 for the open batch.
  const EdgeBatch& log(const EdgeBatch& screened, BatchReport& report);
  // Durability is on and this is a live batch, not a replayed one.
  bool logging() const {
    return durability_.options().enabled() && !replaying_;
  }

  FaultInjector* faults_;
  DurabilityManager durability_;
  durable::DurableCounters cumulative_;
  RecoveredState info_;
  bool replaying_ = false;
  std::uint64_t replay_seq_ = 0;
  // The open batch.
  EdgeBatch owned_;
  std::uint64_t seq_ = 0;
  std::uint64_t faults_before_ = 0;
};

}  // namespace gcsm
