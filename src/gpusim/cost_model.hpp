// Interconnect + compute cost model for the simulated GPU.
//
// The physical testbed of the paper (RTX3090 over PCIe) is not available in
// this environment, so GCSM runs on a *software device*: all engines execute
// on host threads, but every neighbor-list access is routed through this
// model, which accounts traffic in the same three CUDA transfer classes the
// paper analyzes (Sec. II-C):
//
//   * DMA        (cudaMemcpy)              — per-call setup latency + bytes
//                                            at PCIe bandwidth
//   * zero-copy  (pinned host mapping)     — 128-byte cache-line granularity
//                                            at a low effective random-access
//                                            bandwidth; stalls the kernel
//   * unified    (cudaMallocManaged)       — 4-KiB page granularity, per-
//                                            fault overhead, LRU device page
//                                            cache
//
// plus device-memory reads and SIMT compute. Benchmarks report the
// *simulated time* derived from these counters next to wall-clock time; the
// paper's performance shapes (who wins, by what factor) are determined by
// the traffic ratios, which we measure exactly rather than model.
#pragma once

#include <atomic>
#include <cstdint>

namespace gcsm::gpusim {

struct SimParams {
  // --- interconnect -------------------------------------------------------
  double dma_bandwidth_gbps = 12.0;   // effective PCIe 3.0 x16 DMA bandwidth
  double dma_latency_us = 10.0;       // per-cudaMemcpy setup cost
  std::uint32_t zero_copy_line_bytes = 128;  // GPU zero-copy access granule
  // Zero-copy reads are fine-grained but issued by thousands of concurrent
  // warps, so the achieved line-fetch bandwidth approaches the PCIe link
  // rate rather than a single-stream latency-bound figure.
  double zero_copy_bandwidth_gbps = 12.0;
  std::uint32_t um_page_bytes = 4096;      // unified-memory migration granule
  double um_fault_overhead_us = 15.0;      // GPU far-fault service latency
  double um_bandwidth_gbps = 12.0;         // page migration bandwidth
  std::uint64_t um_page_cache_bytes = 1ull << 30;  // resident pages on device

  // --- device -------------------------------------------------------------
  double device_bandwidth_gbps = 600.0;    // global-memory bandwidth
  // Abstract set-operation elements per second for the irregular,
  // divergence-heavy matching kernel (each "op" bundles compare + stack +
  // bookkeeping work). Calibrated so the device is a few times faster than
  // the 32-thread host on the same loops, as in the paper's measurements.
  double device_ops_per_sec = 1.2e10;
  std::uint64_t device_memory_bytes = 24ull << 30;  // RTX3090: 24 GB
  std::uint32_t num_blocks = 82;           // paper launch config
  std::uint32_t threads_per_block = 1024;

  // --- host ---------------------------------------------------------------
  double host_ops_per_sec_per_thread = 1.0e8;  // same abstract op unit
  std::uint32_t host_threads = 32;  // paper runs CPU baselines on 32 threads
  double host_mem_bandwidth_gbps = 50.0;
};

// Plain snapshot of traffic (copyable, no atomics).
struct Traffic {
  std::uint64_t device_bytes = 0;       // reads served from device memory
  std::uint64_t zero_copy_lines = 0;    // 128-B lines fetched from host
  std::uint64_t zero_copy_bytes = 0;    // useful bytes within those lines
  std::uint64_t dma_calls = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t um_faults = 0;          // page faults (misses in page cache)
  std::uint64_t um_hits = 0;            // page-cache hits
  std::uint64_t compute_ops = 0;        // intersection/compare operations
  std::uint64_t host_ops = 0;           // ops executed by CPU engines
  std::uint64_t host_bytes = 0;         // bytes read by CPU engines
  std::uint64_t cache_hits = 0;         // DCSR cache lookups that hit
  std::uint64_t cache_misses = 0;       // ... that fell back to zero-copy

  Traffic& operator+=(const Traffic& o);
  Traffic operator+(const Traffic& o) const;

  // Bytes fetched over the interconnect (what Fig. 8 labels as
  // "data access sizes from CPU").
  std::uint64_t cpu_access_bytes(const SimParams& p) const;
};

// Thread-safe accumulator used during kernel execution.
class TrafficCounters {
 public:
  void reset();
  Traffic snapshot() const;
  // Adds every field of `t` (folds a per-worker accumulator in).
  void add(const Traffic& t);

  void add_device_bytes(std::uint64_t b) { device_bytes_.fetch_add(b, mo); }
  void add_zero_copy(std::uint64_t lines, std::uint64_t bytes) {
    zero_copy_lines_.fetch_add(lines, mo);
    zero_copy_bytes_.fetch_add(bytes, mo);
  }
  void add_dma(std::uint64_t calls, std::uint64_t bytes) {
    dma_calls_.fetch_add(calls, mo);
    dma_bytes_.fetch_add(bytes, mo);
  }
  void add_um_fault(std::uint64_t n = 1) { um_faults_.fetch_add(n, mo); }
  void add_um_hit(std::uint64_t n = 1) { um_hits_.fetch_add(n, mo); }
  void add_compute(std::uint64_t ops) { compute_ops_.fetch_add(ops, mo); }
  void add_host(std::uint64_t ops, std::uint64_t bytes) {
    host_ops_.fetch_add(ops, mo);
    host_bytes_.fetch_add(bytes, mo);
  }
  void add_cache_hit(std::uint64_t n = 1) { cache_hits_.fetch_add(n, mo); }
  void add_cache_miss(std::uint64_t n = 1) { cache_misses_.fetch_add(n, mo); }

 private:
  static constexpr auto mo = std::memory_order_relaxed;
  std::atomic<std::uint64_t> device_bytes_{0};
  std::atomic<std::uint64_t> zero_copy_lines_{0};
  std::atomic<std::uint64_t> zero_copy_bytes_{0};
  std::atomic<std::uint64_t> dma_calls_{0};
  std::atomic<std::uint64_t> dma_bytes_{0};
  std::atomic<std::uint64_t> um_faults_{0};
  std::atomic<std::uint64_t> um_hits_{0};
  std::atomic<std::uint64_t> compute_ops_{0};
  std::atomic<std::uint64_t> host_ops_{0};
  std::atomic<std::uint64_t> host_bytes_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
};

// Simulated time decomposition (seconds).
struct SimTime {
  double dma = 0.0;        // host->device bulk copies
  double zero_copy = 0.0;  // fine-grained host reads (stall the kernel)
  double um = 0.0;         // unified-memory page migrations
  double device_mem = 0.0;
  double compute = 0.0;
  double host = 0.0;       // CPU-engine execution

  double kernel() const { return compute + zero_copy + um + device_mem; }
  double total() const { return kernel() + dma + host; }
};

SimTime simulate_time(const Traffic& t, const SimParams& p);

}  // namespace gcsm::gpusim
