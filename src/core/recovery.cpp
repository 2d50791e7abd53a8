#include "core/recovery.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "gpusim/device.hpp"

namespace gcsm {

RetryLadder::RetryLadder(const RecoveryOptions& rec, bool escalated)
    : rec_(&rec),
      attempts_left_(std::max(1, rec.max_attempts)),
      escalated_(escalated),
      backoff_ms_(rec.backoff_initial_ms) {}

RetryLadder::Step RetryLadder::fail() {
  if (--attempts_left_ > 0) return Step::kRetry;
  if (escalated_ || !rec_->cpu_fallback) return Step::kGiveUp;
  escalated_ = true;
  attempts_left_ = std::max(1, rec_->max_cpu_attempts);
  return Step::kEscalate;
}

double RetryLadder::next_backoff_ms() {
  if (backoff_ms_ <= 0.0) return 0.0;
  const double wait = backoff_ms_;
  backoff_ms_ = std::min(wait * rec_->backoff_multiplier, rec_->backoff_max_ms);
  waited_ms_ += wait;
  return wait;
}

BudgetLadder::BudgetLadder(const RecoveryOptions& rec)
    : floor_(rec.min_cache_budget_bytes),
      heal_after_(std::max(1, rec.heal_after_clean_batches)) {}

std::uint64_t BudgetLadder::effective(std::uint64_t base) const {
  return std::max(base >> level_, floor_);
}

bool BudgetLadder::shrink(std::uint64_t base,
                          const PipelineMetrics& metrics) {
  if (effective(base) <= floor_) return false;
  ++level_;
  clean_streak_ = 0;
  metrics.note_degradation();
  return true;
}

void BudgetLadder::settle(bool clean) {
  if (level_ == 0) return;
  if (!clean) {
    clean_streak_ = 0;
  } else if (++clean_streak_ >= heal_after_) {
    --level_;
    clean_streak_ = 0;
  }
}

bool run_transaction(const RecoveryOptions& rec, bool escalated,
                     const Transaction& txn, BatchReport& report) {
  RetryLadder ladder(rec, escalated);
  for (;;) {
    std::exception_ptr error;
    try {
      txn.attempt(ladder.escalated());
      return ladder.escalated();
    } catch (const gpusim::DeviceOomError&) {
      txn.rollback();
      if (txn.oom_is_final) throw;
      if (!ladder.escalated() && txn.shrink()) {
        ++report.retries;  // a smaller budget, not a spent attempt
        continue;
      }
      error = std::current_exception();
    } catch (const Error& e) {
      txn.rollback();
      if (!e.transient()) throw;
      error = std::current_exception();
    } catch (...) {
      // Unclassified failures (CheckFailure, logic errors) still leave a
      // consistent state behind, but are not retried.
      txn.rollback();
      throw;
    }
    ++report.retries;
    const RetryLadder::Step step = ladder.fail();
    if (step == RetryLadder::Step::kGiveUp) std::rethrow_exception(error);
    const double wait = ladder.next_backoff_ms();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
    report.backoff_ms += wait;
  }
}

}  // namespace gcsm
