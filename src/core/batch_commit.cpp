#include "core/batch_commit.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/fault.hpp"

namespace gcsm {

BatchCommit::BatchCommit(const DurabilityOptions& options,
                         FaultInjector* faults)
    : faults_(faults), durability_(options, faults) {}

void BatchCommit::recover(const ReplayHooks& hooks) {
  if (!durability_.options().enabled()) return;
  info_ = durability_.recover();
  if (hooks.graph == nullptr &&
      (info_.snapshot_loaded || !info_.replay.empty())) {
    throw Error(ErrorCode::kRecovery,
                durability_.options().wal_dir +
                    " holds committed state this engine cannot replay; "
                    "one query's batches replay through a single-device "
                    "Pipeline (csm_cli --recover without --shards), or "
                    "start fresh with recover_on_start off");
  }
  if (info_.snapshot_loaded) {
    hooks.graph->restore(info_.graph);
    if (hooks.validate) hooks.graph->validate();
    cumulative_ = info_.counters;
  }
  if (hooks.before) hooks.before();
  {
    // The batches already survived production once: fault injection is
    // suspended, and `replaying_` keeps open() from re-logging them. (A
    // throw ends the engine's construction, so the flag needs no unwinding.)
    const FaultSuspendGuard suspend(faults_);
    replaying_ = true;
    for (const auto& [seq, batch] : info_.replay) {
      replay_seq_ = seq;
      hooks.batch(batch);
    }
    if (hooks.after) hooks.after();
    replaying_ = false;
  }
  // Integrity gate: the replayed totals must reproduce the last commit
  // marker exactly — otherwise the durable state is inconsistent (e.g. a
  // compacted WAL with a corrupt snapshot) and serving it would be wrong.
  if (info_.have_expected && cumulative_ != info_.expected) {
    throw Error(
        ErrorCode::kRecovery,
        "recovery replay does not reproduce the committed counters "
        "(batches " +
            std::to_string(cumulative_.batches_committed) + " vs " +
            std::to_string(info_.expected.batches_committed) + ", signed " +
            std::to_string(cumulative_.cum_signed) + " vs " +
            std::to_string(info_.expected.cum_signed) + ")");
  }
}

const EdgeBatch& BatchCommit::open(const EdgeBatch& batch, bool sanitize,
                                   const BatchSanitizer& sanitizer,
                                   BatchReport& report) {
  faults_before_ = faults_ != nullptr ? faults_->fired_count() : 0;
  return log(phase_ingest(batch, faults_, sanitize, sanitizer, owned_,
                          report.quarantine),
             report);
}

const EdgeBatch& BatchCommit::open_screened(EdgeBatch screened,
                                            BatchReport& report) {
  faults_before_ = faults_ != nullptr ? faults_->fired_count() : 0;
  owned_ = std::move(screened);
  return log(owned_, report);
}

const EdgeBatch& BatchCommit::log(const EdgeBatch& screened,
                                  BatchReport& report) {
  // Step 1: the screened batch reaches stable storage before the graph is
  // touched, so recovery replays exactly the bytes that ran.
  seq_ = logging() ? durability_.begin_batch(screened) : 0;
  report.wal_seq = seq_;
  return screened;
}

void BatchCommit::commit(BatchClose close, BatchReport& report) {
  // Only a batch that stayed off the escalation rung counts toward healing.
  report.degradation_level = 0;
  report.effective_cache_budget = 0;
  for (BudgetLadder& budget : close.budgets) {
    if (!close.escalated) budget.settle(report.retries == 0);
    report.degradation_level =
        std::max(report.degradation_level, budget.level());
    report.effective_cache_budget += budget.effective(close.budget_base);
  }
  if (faults_ != nullptr) {
    report.faults_observed = faults_->fired_count() - faults_before_;
  }

  // Step 3: the totals including this batch go into the commit marker; the
  // in-memory totals advance only once it is written.
  durable::DurableCounters next = cumulative_;
  next.batches_committed += 1;
  next.cum_signed += close.delta.signed_embeddings;
  next.cum_positive += close.delta.positive;
  next.cum_negative += close.delta.negative;
  if (replaying_) next.last_seq = replay_seq_;
  if (seq_ != 0) {
    next.last_seq = seq_;
    try {
      if (close.group) {
        // The committer appends the server states, then the marker; the
        // batch is durable once durable_seq() reaches it. Nothing may be
        // surfaced before that, so a crash re-exposes exactly what
        // recovery replays.
        durability_.enqueue_commit(
            CommitUnit{seq_, next, std::move(close.server_states)});
      } else {
        for (const std::string& payload : close.server_states) {
          durability_.log_server_state(seq_, payload);
        }
        durability_.commit_batch(seq_, next);
      }
    } catch (...) {
      // The batch never became durable: roll it back so memory agrees with
      // disk, and let the client re-submit. (Sink callbacks already made
      // cannot be retracted — see docs/ROBUSTNESS.md.)
      close.rollback();
      throw;
    }
  }
  cumulative_ = next;
}

bool BatchCommit::snapshot(const DynamicGraph& graph, bool force) {
  if (!logging() || !(force || snapshot_due())) return false;
  return durability_.snapshot_now(graph, cumulative_);
}

bool BatchCommit::snapshot_due() const {
  const std::uint64_t interval = durability_.options().snapshot_interval;
  return interval > 0 && durability_.commits_since_snapshot() >= interval;
}

}  // namespace gcsm
