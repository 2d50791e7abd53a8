// The workloads, their inputs, one measured pass per engine, and the
// static counts the correctness gate compares against.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/cpu_engine.hpp"
#include "core/pipeline.hpp"
#include "core/workloads.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace gcsm;
using Clock = std::chrono::steady_clock;

// Labels on the data graph and round-robin on the queries, as in the
// bench/ harness: deep enough execution trees for paper-like phase shares.
constexpr std::uint32_t kLabels = 3;
// The bench/ harness's default master seed.
constexpr std::uint64_t kGraphSeed = 7;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::vector<QueryGraph> make_queries(const WorkloadSpec& w) {
  std::vector<QueryGraph> out;
  for (const int q : w.queries) {
    out.push_back(with_round_robin_labels(make_pattern(q),
                                          static_cast<int>(kLabels)));
  }
  return out;
}

// ~10% of the adjacency bytes, floored at 2 MB: the bench/ harness rule,
// mirroring the paper's buffer-to-graph ratio.
std::uint64_t cache_budget(const CsrGraph& g) {
  return std::max<std::uint64_t>(2ull << 20,
                                 2 * g.num_edges() * sizeof(VertexId) / 10);
}

BatchSample sample_of(const BatchReport& r) {
  BatchSample s;
  s.signed_counts = {r.stats.signed_embeddings};
  s.embeddings = r.stats.positive + r.stats.negative;
  s.sim_estimate_ms = r.sim_estimate_s * 1e3;
  s.sim_pack_ms = r.sim_pack_s * 1e3;
  s.sim_match_ms = r.sim_match_s * 1e3;
  s.sim_reorg_ms = r.sim_reorg_s * 1e3;
  s.compute_ops = r.traffic.compute_ops;
  s.cache_hits = r.traffic.cache_hits;
  s.cache_misses = r.traffic.cache_misses;
  s.zero_copy_bytes = r.traffic.zero_copy_bytes;
  s.cached_vertices = r.cached_vertices;
  s.retries = r.retries;
  s.cpu_fallbacks = r.cpu_fallback ? 1 : 0;
  return s;
}

BatchSample sample_of(const server::ServerBatchReport& r) {
  BatchSample s;
  s.sim_estimate_ms = r.shared.sim_estimate_s * 1e3;
  s.sim_pack_ms = r.shared.sim_pack_s * 1e3;
  s.sim_reorg_ms = r.shared.sim_reorg_s * 1e3;
  s.cached_vertices = r.shared.cached_vertices;
  s.retries = r.shared.retries;
  s.cpu_fallbacks = r.shared.cpu_fallback ? 1 : 0;
  for (const server::QueryReport& q : r.queries) {
    const BatchReport& qr = q.report;
    s.signed_counts.push_back(qr.stats.signed_embeddings);
    s.embeddings += qr.stats.positive + qr.stats.negative;
    // Every query's kernel occupies the same device: the per-query device
    // matches add up (bench/pipeline_overlap.cpp's rule).
    s.sim_match_ms += qr.sim_match_s * 1e3;
    s.slowest_query_ms = std::max(s.slowest_query_ms, qr.wall_match_ms);
    s.compute_ops += qr.traffic.compute_ops;
    s.cache_hits += qr.traffic.cache_hits;
    s.cache_misses += qr.traffic.cache_misses;
    s.zero_copy_bytes += qr.traffic.zero_copy_bytes;
    s.retries += qr.retries;
    s.cpu_fallbacks += qr.cpu_fallback ? 1 : 0;
  }
  return s;
}

BatchSample sample_of(const shard::ShardedBatchReport& r) {
  BatchSample s;
  for (const shard::ShardQueryReport& q : r.queries) {
    s.signed_counts.push_back(q.stats.signed_embeddings);
    s.embeddings += q.stats.positive + q.stats.negative;
  }
  // The shards run in parallel: the report's simulated phases are already
  // the max over shards.
  s.sim_estimate_ms = r.shared.sim_estimate_s * 1e3;
  s.sim_pack_ms = r.shared.sim_pack_s * 1e3;
  s.sim_match_ms = r.shared.sim_match_s * 1e3;
  s.sim_reorg_ms = r.shared.sim_reorg_s * 1e3;
  s.spanless_estimate_ms = r.shared.wall_estimate_ms;
  s.spanless_match_ms = r.shared.wall_match_ms;
  s.compute_ops = r.shared.traffic.compute_ops;
  s.cache_hits = r.shared.traffic.cache_hits;
  s.cache_misses = r.shared.traffic.cache_misses;
  s.zero_copy_bytes = r.shared.traffic.zero_copy_bytes;
  s.cached_vertices = r.shared.cached_vertices;
  s.retries = r.shared.retries;
  s.cpu_fallbacks = r.shared.cpu_fallback ? 1 : 0;
  s.stitch_ms = r.stitch.stitch_seconds * 1e3;
  s.stitch_candidates = r.stitch.stitch_candidates;
  s.routed_joins = r.stitch.routed_items;
  s.cut_edges = r.cut_edges;
  s.imbalance = r.imbalance;
  // The report carries one match wall for all shards, so the per-shard
  // skew is taken from each shard's simulated match time.
  double max_ms = 0.0;
  double sum_ms = 0.0;
  for (const BatchReport& sr : r.shards) {
    max_ms = std::max(max_ms, sr.sim_match_s * 1e3);
    sum_ms += sr.sim_match_s * 1e3;
  }
  s.match_skew = sum_ms > 0.0
                     ? max_ms * static_cast<double>(r.shards.size()) / sum_ms
                     : 1.0;
  return s;
}

// Closed loop: the next batch is offered when the previous call returns.
template <typename Engine>
void closed_loop(Engine& engine, const Inputs& in, PassResult& r) {
  const Clock::time_point start = Clock::now();
  Clock::time_point prev_end = start;
  r.offered = in.batches.size();
  for (const EdgeBatch& batch : in.batches) {
    const Clock::time_point t0 = Clock::now();
    r.driver_lag_ms.push_back(ms_between(prev_end, t0));
    BatchSample s;
    try {
      const trace::Span span(kSpanProcessBatch);
      s = sample_of(engine.process_batch(batch));
    } catch (const std::exception& e) {
      r.failed += in.batches.size() - r.batches.size();
      r.error = e.what();
      break;
    }
    prev_end = Clock::now();
    s.latency_ms = ms_between(t0, prev_end);
    s.updates = batch.updates.size();
    r.busy_ms += s.latency_ms;
    r.batches.push_back(std::move(s));
  }
  r.span_s = ms_between(start, prev_end) / 1e3;
}

// Open loop: batch k is due at start + k / rate whatever the engine does.
// Every `group` consecutive batches go to one process_stream call once the
// last of them is due and the engine is idle; a batch's latency runs from
// its due time to its durable surfacing in on_batch.
void open_loop(server::MultiQueryEngine& engine, const Inputs& in,
               const WorkloadSpec& w, trace::TraceCollector* collector,
               PassResult& r) {
  const std::size_t n = in.batches.size();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w.arrival_per_s));
  const Clock::time_point start = Clock::now();
  std::vector<Clock::time_point> due(n);
  for (std::size_t k = 0; k < n; ++k) {
    due[k] = start + period * static_cast<Clock::rep>(k);
  }
  Clock::time_point last_done = start;
  std::vector<BatchSample> surfaced(n);
  std::vector<bool> seen(n, false);
  r.offered = n;
  for (std::size_t k = 0; k < n; k += w.group) {
    const std::size_t end = std::min(n, k + w.group);
    const Clock::time_point ready = due[end - 1];
    if (Clock::now() < ready) {
      std::this_thread::sleep_until(ready);
      r.driver_lag_ms.push_back(ms_between(ready, Clock::now()));
    }
    const Clock::time_point handed = Clock::now();
    const std::vector<EdgeBatch> chunk(
        in.batches.begin() + static_cast<std::ptrdiff_t>(k),
        in.batches.begin() + static_cast<std::ptrdiff_t>(end));
    for (std::size_t j = k; j < end; ++j) {
      surfaced[j].queue_wait_ms = ms_between(due[j], handed);
      if (collector != nullptr) {
        // The span runs from the batch's due time to its hand-over.
        const double handed_us =
            collector->now_us() - ms_between(handed, Clock::now()) * 1e3;
        const double waited_us = surfaced[j].queue_wait_ms * 1e3;
        collector->record(kSpanQueueWait, "gcsm", handed_us - waited_us,
                          waited_us);
      }
    }
    std::size_t next = k;
    try {
      const trace::Span span(kSpanProcessStream);
      engine.process_stream(chunk, [&](server::ServerBatchReport&& rep) {
        const Clock::time_point now = Clock::now();
        BatchSample s = sample_of(rep);
        s.queue_wait_ms = surfaced[next].queue_wait_ms;
        s.latency_ms = ms_between(due[next], now);
        s.updates = in.batches[next].updates.size();
        surfaced[next] = std::move(s);
        seen[next] = true;
        ++next;
      });
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    last_done = Clock::now();
    r.busy_ms += ms_between(handed, last_done);
    if (!r.error.empty()) break;
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (seen[k]) {
      r.batches.push_back(std::move(surfaced[k]));
    } else {
      r.failed += 1;
    }
  }
  r.span_s = ms_between(start, last_done) / 1e3;
}

std::unique_ptr<Pipeline> make_pipeline(const RunConfig& cfg,
                                        const Inputs& in) {
  PipelineOptions opt;
  opt.kind = EngineKind::kGcsm;
  opt.cache_budget_bytes = cache_budget(in.initial);
  opt.seed = cfg.seed + 13;
  return std::make_unique<Pipeline>(in.initial,
                                    make_queries(*cfg.spec).front(), opt);
}

std::unique_ptr<shard::ShardedMatchEngine> make_sharded(const RunConfig& cfg,
                                                        const Inputs& in) {
  shard::ShardedEngineOptions opt;
  opt.num_shards = 4;
  opt.partition = shard::PartitionStrategy::kHash;
  opt.kind = EngineKind::kGcsm;
  opt.cache_budget_bytes = cache_budget(in.initial);
  opt.seed = cfg.seed + 13;
  auto engine = std::make_unique<shard::ShardedMatchEngine>(in.initial, opt);
  for (QueryGraph& q : make_queries(*cfg.spec)) {
    engine->register_query(std::move(q));
  }
  return engine;
}

// With the WAL on: fsync, group commit of `group` markers, and a snapshot
// every 8 commits, into a fresh directory under the scratch dir.
std::unique_ptr<server::MultiQueryEngine> make_server(
    const RunConfig& cfg, const Inputs& in, const std::string& wal_dir) {
  std::filesystem::remove_all(wal_dir);
  server::MultiQueryOptions opt;
  opt.kind = EngineKind::kGcsm;
  opt.cache_budget_bytes = cache_budget(in.initial);
  opt.seed = cfg.seed + 13;
  opt.durability.wal_dir = wal_dir;
  opt.durability.recover_on_start = false;
  opt.durability.fsync = true;
  opt.durability.snapshot_interval = 8;
  opt.durability.group_commit_batches = cfg.spec->group;
  auto engine = std::make_unique<server::MultiQueryEngine>(in.initial, opt);
  for (QueryGraph& q : make_queries(*cfg.spec)) {
    engine->register_query(std::move(q));
  }
  return engine;
}

// Set-up is generating the graph and the stream, constructing the engine and
// registering its queries; then the pass offers the batches to the engine.
template <typename Make, typename Loop>
PassResult measured_pass(const RunConfig& cfg,
                         trace::TraceCollector* collector, Make make,
                         Loop loop) {
  PassResult r;
  r.traced = collector != nullptr;
  const ArmTrace armed(collector);
  Inputs in;
  decltype(make(in)) engine;
  {
    const Timer t;
    const trace::Span span(kSpanSetup);
    in = make_inputs(cfg);
    engine = make(in);
    r.setup_s = t.seconds();
  }
  r.before = metrics::Registry::global().snapshot();
  loop(*engine, in, collector, r);
  r.after = metrics::Registry::global().snapshot();
  return r;
}

// The static plan (Fig. 2a) over a plain host view: none of the delta plans,
// caches or orchestrators the measured engines run. (The brute-force
// reference_count_embeddings takes minutes on these graphs.)
std::uint64_t static_count(const DynamicGraph& g, const QueryGraph& q) {
  gpusim::SimtExecutor executor;
  MatchEngine engine(q, executor);
  HostPolicy policy(g);
  gpusim::TrafficCounters scratch;
  return engine.match_full(g, policy, scratch).positive;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"match-q5", "SF3K", 0.1, 1024, {5}, EngineType::kPipeline, 420.0},
      {"serve-wal", "LJ", 1.0, 1024, {1, 2, 3, 4, 6}, EngineType::kServer,
       0.0, 3.0, 3},
      {"shard4", "SF3K", 0.1, 1024, {1, 2, 3, 4, 6}, EngineType::kSharded,
       140.0},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const RunConfig& cfg) {
  const WorkloadSpec& w = *cfg.spec;
  const std::size_t batch = cfg.smoke ? 128 : w.batch_size;
  // G_0 and the update pool (the paper's protocol: which edges, and whether
  // each is inserted or deleted) are fixed per workload, and so is the
  // prefix of the pool a run applies: every seed measures the same graph and
  // the same updates. The seed sets the order in which those updates arrive,
  // hence how they group into batches, and seeds the engines. Any order is
  // valid: each pooled edge occurs exactly once.
  CsrGraph base = make_workload_graph(w.dataset, cfg.scale, kLabels,
                                      kGraphSeed);
  UpdateStream stream = make_update_stream(
      base, default_stream_options(w.dataset, batch, kGraphSeed + 1));
  std::vector<EdgeUpdate> pool;
  for (const EdgeBatch& b : stream.batches) {
    pool.insert(pool.end(), b.updates.begin(), b.updates.end());
  }
  pool.resize(std::min(pool.size(), cfg.batches_per_pass * batch));
  Rng rng(cfg.seed);
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.bounded(i)]);
  }
  Inputs in;
  in.initial = std::move(stream.initial);
  for (std::size_t begin = 0; begin < pool.size(); begin += batch) {
    const std::size_t end = std::min(pool.size(), begin + batch);
    EdgeBatch b;
    b.updates.assign(pool.begin() + static_cast<std::ptrdiff_t>(begin),
                     pool.begin() + static_cast<std::ptrdiff_t>(end));
    in.batches.push_back(std::move(b));
  }
  return in;
}

PassResult run_pass(const RunConfig& cfg, trace::TraceCollector* collector,
                    std::size_t pass) {
  auto closed = [](auto& engine, const Inputs& in, trace::TraceCollector*,
                   PassResult& r) { closed_loop(engine, in, r); };
  switch (cfg.spec->engine) {
    case EngineType::kPipeline:
      return measured_pass(
          cfg, collector,
          [&](const Inputs& in) { return make_pipeline(cfg, in); },
          closed);
    case EngineType::kSharded:
      return measured_pass(
          cfg, collector,
          [&](const Inputs& in) { return make_sharded(cfg, in); },
          closed);
    case EngineType::kServer: {
      const std::string wal_dir =
          (std::filesystem::path(cfg.scratch_dir) /
           ("wal-" + std::to_string(pass)))
              .string();
      PassResult r = measured_pass(
          cfg, collector,
          [&](const Inputs& in) { return make_server(cfg, in, wal_dir); },
          [&](server::MultiQueryEngine& engine, const Inputs& in,
              trace::TraceCollector* c, PassResult& out) {
            open_loop(engine, in, *cfg.spec, c, out);
          });
      std::filesystem::remove_all(wal_dir);
      return r;
    }
  }
  throw Error(ErrorCode::kConfig, "unknown engine type");
}

StaticCounts count_static(const RunConfig& cfg) {
  const trace::Span span(kSpanCheck);
  const Inputs in = make_inputs(cfg);
  const std::vector<QueryGraph> queries = make_queries(*cfg.spec);
  DynamicGraph g(in.initial);
  StaticCounts out;
  for (const QueryGraph& q : queries) {
    out.delta.push_back(-static_cast<std::int64_t>(static_count(g, q)));
  }
  for (const EdgeBatch& b : in.batches) {
    g.apply_batch(b);
    g.reorganize();
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    out.delta[i] += static_cast<std::int64_t>(static_count(g, queries[i]));
  }
  return out;
}

}  // namespace perfbench
