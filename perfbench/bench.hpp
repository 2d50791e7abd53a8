// Repository benchmark: workload table, per-pass records and the layer
// accounting shared by the driver's translation units (perfbench/README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/update_stream.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

enum class EngineType { kPipeline, kServer, kSharded };

struct WorkloadSpec {
  const char* name;
  const char* dataset;  // core/workloads.hpp analog name
  double scale;
  std::size_t batch_size;
  std::vector<int> queries;  // paper query indices, labeled round-robin
  EngineType engine;
  // Nominal per-batch cost on a 4-core host. It only sizes a pass (batches =
  // run seconds / passes / this), so the batch set is fixed by --seconds and
  // never by how fast the code under test runs.
  double nominal_batch_ms;
  // Open loop (kServer): batch arrival rate, and how many consecutive
  // batches each process_stream call receives. A fixed group keeps the
  // staged-estimate schedule, and with it every simulated number,
  // independent of timing.
  double arrival_per_s = 0.0;
  std::size_t group = 1;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// What one run is asked to do.
struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs: the determinism self-test
  std::string scratch_dir;
  std::size_t passes = 1;
  std::size_t batches_per_pass = 0;
  double scale = 0.0;  // spec->scale, or the smoke-size scale
};

struct Inputs {
  gcsm::CsrGraph initial;
  std::vector<gcsm::EdgeBatch> batches;  // batches_per_pass, seed-ordered
};

Inputs make_inputs(const RunConfig& cfg);

// One batch as the driver saw it.
struct BatchSample {
  double latency_ms = 0.0;     // closed: the call; open: due -> surfaced
  double queue_wait_ms = 0.0;  // open loop: due -> handed to the engine
  std::size_t updates = 0;
  std::vector<std::int64_t> signed_counts;  // per query
  std::uint64_t embeddings = 0;             // positive + negative
  double sim_estimate_ms = 0.0;
  double sim_pack_ms = 0.0;
  double sim_match_ms = 0.0;
  double sim_reorg_ms = 0.0;
  // Report-timed phases with no span of their own (sharded engine).
  double spanless_estimate_ms = 0.0;
  double spanless_match_ms = 0.0;
  double slowest_query_ms = 0.0;
  std::uint64_t compute_ops = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t zero_copy_bytes = 0;
  std::uint64_t cached_vertices = 0;
  std::uint64_t retries = 0;
  std::uint64_t cpu_fallbacks = 0;
  double stitch_ms = 0.0;
  std::uint64_t stitch_candidates = 0;
  std::uint64_t routed_joins = 0;
  double match_skew = 0.0;
  std::uint64_t cut_edges = 0;
  double imbalance = 0.0;

  double sim_ms() const {
    return sim_estimate_ms + sim_pack_ms + sim_match_ms + sim_reorg_ms;
  }
};

struct PassResult {
  bool traced = false;
  double setup_s = 0.0;
  double busy_ms = 0.0;  // summed engine-call wall
  double span_s = 0.0;   // first batch issued (or due) to last one done
  std::size_t offered = 0;
  std::size_t failed = 0;  // threw or never surfaced
  std::string error;
  std::vector<BatchSample> batches;  // surfaced batches, in order
  std::vector<double> driver_lag_ms;
  gcsm::metrics::Snapshot before;
  gcsm::metrics::Snapshot after;
};

// Arms `collector` process-wide for the guard's lifetime; nullptr leaves
// tracing off.
class ArmTrace {
 public:
  explicit ArmTrace(gcsm::trace::TraceCollector* collector)
      : armed_(collector != nullptr) {
    if (armed_) gcsm::trace::set_collector(collector);
  }
  ~ArmTrace() {
    if (armed_) gcsm::trace::set_collector(nullptr);
  }
  ArmTrace(const ArmTrace&) = delete;
  ArmTrace& operator=(const ArmTrace&) = delete;

 private:
  bool armed_;
};

// Runs pass number `pass`: set up, then offer cfg.batches_per_pass batches.
// A non-null collector traces the pass.
PassResult run_pass(const RunConfig& cfg,
                    gcsm::trace::TraceCollector* collector, std::size_t pass);

// Static embedding counts M(G_0) and M(G_end) per query, computed outside
// every engine's incremental path.
struct StaticCounts {
  std::vector<std::int64_t> delta;  // M(G_end) - M(G_0)
};
StaticCounts count_static(const RunConfig& cfg);

// Bench span names (the driver's own boundaries around public calls).
inline constexpr const char* kSpanProcessBatch = "bench.process_batch";
inline constexpr const char* kSpanProcessStream = "bench.process_stream";
inline constexpr const char* kSpanQueueWait = "bench.queue_wait";
inline constexpr const char* kSpanSetup = "bench.setup";
inline constexpr const char* kSpanCheck = "bench.check";

// Wall time of the traced passes split by layer, summed over batches.
struct LayerTimes {
  double batch_wall_ms = 0.0;  // engine-call spans on the driver thread
  double match_ms = 0.0;
  double estimate_ms = 0.0;
  double pack_ms = 0.0;
  double update_ms = 0.0;
  double reorg_ms = 0.0;
  double txn_ms = 0.0;       // pipeline.batch self time
  double unattributed_ms = 0.0;
  double pipeline_batch_ms = 0.0;  // whole pipeline.batch spans
  double stream_ms = 0.0;          // whole process_stream spans
  double query_match_ms = 0.0;     // per-query match spans, any thread
  // Phase work on any thread (spans plus spanless report timings), the
  // denominators of the per-operation rates.
  double match_work_ms = 0.0;
  double estimate_work_ms = 0.0;

  double attributed_ms() const {
    return match_ms + estimate_ms + pack_ms + update_ms + reorg_ms + txn_ms;
  }
};

LayerTimes attribute_layers(const std::vector<gcsm::trace::TraceEvent>& ev,
                            double spanless_estimate_ms,
                            double spanless_match_ms);

}  // namespace perfbench
