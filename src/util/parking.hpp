// Interruptible parking (docs/ROBUSTNESS.md, "Overload & admission
// control").
//
// A ParkingLot is a bounded delay, as a condition-variable wait that
// interrupt_all() can cut short: the admission controller parks blocked
// submitters and the paced server thread on one, and every pop, shed or
// close rings it. (The retry ladders sleep out their backoff instead —
// nothing interrupts a batch mid-retry.)
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace gcsm::util {

class ParkingLot {
 public:
  // Blocks for roughly `ms` milliseconds, returning early if
  // interrupt_all() is called in the meantime. ms <= 0 returns immediately.
  void park_for_ms(double ms) {
    if (ms <= 0.0) return;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t seen = epoch_;
    cv_.wait_until(lock, deadline, [&] { return epoch_ != seen; });
  }

  // Wakes every parked thread immediately (teardown, next batch ready).
  void interrupt_all() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;
};

}  // namespace gcsm::util
