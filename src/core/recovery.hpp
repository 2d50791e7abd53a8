// The one recovery ladder every batch engine runs (docs/ROBUSTNESS.md).
//
// Batches run as transactions (paper Fig. 3): a failed attempt rolls back
// and is sorted by run_transaction —
//   VSGM device OOM  -> rethrow (the k-hop data must be resident; shrinking
//                       cannot help);
//   other device OOM -> halve the budget it came from and retry at once, or,
//                       with the budget at its floor, treat it as a retry;
//   transient Error  -> retry after a capped exponential backoff, and once
//                       the attempts run out take the one escalation step;
//   anything else    -> rethrow.
// The policy has two halves. A RetryLadder lives for one batch (or one
// multi-query match task) and counts its attempts; a BudgetLadder lives for
// one device and carries the OOM degradation across batches, healing it
// after enough clean ones. What an engine's escalated attempt does (re-run
// on the CPU, drop the cache) and what it rolls back are its own, passed in
// as a Transaction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "core/phases.hpp"
#include "util/error.hpp"

namespace gcsm {

// Attempt ladder: `max_attempts` on the configured engine, then (with
// cpu_fallback) one escalation step and `max_cpu_attempts` more, with the
// capped exponential backoff between attempts.
class RetryLadder {
 public:
  enum class Step {
    kRetry,     // attempts remain on the current rung
    kEscalate,  // the first rung is spent; the next attempt is escalated
    kGiveUp,    // nothing left: the caller rethrows
  };

  // `escalated` starts on the last rung: an engine configured for the CPU
  // has nothing to escalate to. `rec` must outlive the ladder.
  explicit RetryLadder(const RecoveryOptions& rec, bool escalated = false);

  bool escalated() const { return escalated_; }
  // Consumes one attempt after a retryable failure.
  Step fail();
  // The delay before the next attempt (0 = none); advances the schedule.
  double next_backoff_ms();
  // Sum of every delay handed out so far.
  double waited_ms() const { return waited_ms_; }

 private:
  const RecoveryOptions* rec_;
  int attempts_left_;
  bool escalated_;
  double backoff_ms_;
  double waited_ms_ = 0.0;
};

// Budget ladder of one device: each OOM halves the cache budget down to
// `min_cache_budget_bytes`, and `heal_after_clean_batches` consecutive
// clean device batches double it back, one step at a time.
class BudgetLadder {
 public:
  explicit BudgetLadder(const RecoveryOptions& rec);

  std::uint32_t level() const { return level_; }
  // `base` halved level() times, floored at min_cache_budget_bytes.
  std::uint64_t effective(std::uint64_t base) const;
  // One halving after a device OOM, noted in `metrics`; false (and no
  // change) when the budget is already at the floor.
  bool shrink(std::uint64_t base, const PipelineMetrics& metrics);
  // Closes a batch that finished on the device: a clean one (no retries)
  // extends the healing streak, any other restarts it.
  void settle(bool clean);

 private:
  std::uint64_t floor_;
  int heal_after_;
  std::uint32_t level_ = 0;
  int clean_streak_ = 0;
};

// What one engine plugs into the transaction loop.
struct Transaction {
  // One attempt of the batch; `escalated` once the ladder is on its last
  // rung (the engine's escalation: a CPU re-run, a dropped cache).
  std::function<void(bool escalated)> attempt;
  // Restores everything a failed attempt may have touched.
  std::function<void()> rollback;
  // A device OOM on the first rung: shrink the budget it came from; false
  // when that budget is at its floor.
  std::function<bool()> shrink;
  // VSGM: the k-hop data must be device-resident, so OOM is final.
  bool oom_is_final = false;
};

// Runs `txn` until an attempt succeeds, counting retries and backoff into
// `report` and sleeping out the backoff between attempts. Returns whether
// the batch ended escalated; rethrows (after the rollback) when it gives up.
bool run_transaction(const RecoveryOptions& rec, bool escalated,
                     const Transaction& txn, BatchReport& report);

// The durable write path's retry: `op` re-runs while it throws a transient
// Error, `attempts` runs in all, with no backoff and no escalation. A
// CrashError (a simulated process death) always escapes.
template <class Op>
void retry_transient(int attempts, Op&& op) {
  for (int left = std::max(1, attempts);;) {
    try {
      op();
      return;
    } catch (const CrashError&) {
      throw;
    } catch (const Error& e) {
      if (!e.transient() || --left <= 0) throw;
    }
  }
}

}  // namespace gcsm
