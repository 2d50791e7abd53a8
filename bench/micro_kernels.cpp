// Google-benchmark microbenchmarks for the library's primitives: the
// candidate kernel every matcher runs (core/intersect.hpp), the enumeration
// DFS that drives it (core/enumerate.hpp), binomial sampling, the cached
// neighbor-list fetch (CachedPolicy::fetch over a DcsrCache), dynamic-graph
// updates, and the frequency estimator. These are the hot
// paths of the matching kernel and the Step-2/Step-5 host phases.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/dcsr_cache.hpp"
#include "core/frequency_estimator.hpp"
#include "core/gpu_engine.hpp"
#include "core/intersect.hpp"
#include "core/workloads.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "util/binomial.hpp"
#include "util/rng.hpp"

namespace {

using namespace gcsm;

std::vector<VertexId> sorted_random(std::size_t n, VertexId range,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<VertexId>(rng.bounded(range)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// The three view shapes the candidate kernel meets: a plain list read where
// it lies, a prefix carrying tombstones, and a prefix plus an appended run
// (the last two are decoded into scratch first).
enum Shape : int { kPlain = 0, kTombstoned = 1, kAppended = 2 };

// A view whose live ids are `ids`, stored in the given shape.
struct BenchView {
  std::vector<VertexId> prefix;
  std::vector<VertexId> appended;
  NeighborView view;

  BenchView(const std::vector<VertexId>& ids, Shape shape) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (shape == kAppended && i % 8 == 7) {
        appended.push_back(ids[i]);
      } else {
        prefix.push_back(ids[i]);
      }
      // One deleted neighbor after every 16 live ones.
      if (shape == kTombstoned && i % 16 == 15 && i + 1 < ids.size() &&
          ids[i] + 1 < ids[i + 1]) {
        prefix.push_back(tombstone(ids[i] + 1));
      }
    }
    view.prefix = {prefix.data(), static_cast<std::uint32_t>(prefix.size())};
    view.appended = {appended.data(),
                     static_cast<std::uint32_t>(appended.size())};
    view.tombstones = std::any_of(prefix.begin(), prefix.end(),
                                  [](VertexId w) { return w < 0; });
  }
};

// Times compute_candidates over `views`, the path every matcher runs.
void run_kernel(benchmark::State& state, const std::vector<BenchView>& views) {
  std::vector<VertexId> out;
  KernelScratch scratch;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    ops += compute_candidates(
        views.size(), [&](std::size_t i) { return views[i].view; }, out,
        scratch);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(ops);
  std::uint64_t items = 0;
  for (const BenchView& v : views) items += v.view.size_bound();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * items));
}

void BM_IntersectBalanced(benchmark::State& state) {
  // Equal-length lists: the block-merge path. Arg 2 adds a third operand,
  // intersected in place into the first pair's result.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto shape = static_cast<Shape>(state.range(1));
  const auto range = static_cast<VertexId>(2 * n);
  std::vector<BenchView> views;
  views.emplace_back(sorted_random(n, range, 1), shape);
  views.emplace_back(sorted_random(n, range, 2), shape);
  if (state.range(2) != 0) {
    views.emplace_back(sorted_random(n, range, 3), shape);
  }
  run_kernel(state, views);
}
BENCHMARK(BM_IntersectBalanced)
    ->ArgsProduct(
        {{64, 1024, 16384}, {kPlain, kTombstoned, kAppended}, {0, 1}});

void BM_IntersectSkewed(benchmark::State& state) {
  // Small list vs big list: the galloping path (hub-vertex case).
  const auto shape = static_cast<Shape>(state.range(1));
  std::vector<BenchView> views;
  views.emplace_back(sorted_random(32, 1 << 20, 3), kPlain);
  views.emplace_back(
      sorted_random(static_cast<std::size_t>(state.range(0)), 1 << 20, 4),
      shape);
  run_kernel(state, views);
}
BENCHMARK(BM_IntersectSkewed)
    ->ArgsProduct(
        {{1 << 12, 1 << 16, 1 << 20}, {kPlain, kTombstoned, kAppended}});

// The enumeration core (core/enumerate.hpp) on a fixed-seed SF3K-analog
// batch with Q5 over 3 labels (perfbench's match-q5 shape, smaller): one
// worker runs every delta plan over the batch, as a MatchEngine launch does. Arg 1 uses the candidate-set memo at its default size; arg 0
// gives it no arena, so every level's set is computed.
void BM_EnumerateBatch(benchmark::State& state) {
  const CsrGraph csr = make_workload_graph("SF3K", 0.05, 3, 12);
  const UpdateStream stream =
      make_update_stream(csr, default_stream_options("SF3K", 256, 13));
  DynamicGraph graph(stream.initial);
  const EdgeBatch& batch = stream.batches[0];
  graph.apply_batch(batch);
  gpusim::SimtExecutor exec(1);
  detail::MemoCapacity memo;
  if (state.range(0) == 0) memo.arena_ids = 0;
  MatchEngine engine(with_round_robin_labels(make_pattern(5), 3), exec, 2,
                     memo);
  HostPolicy policy(graph);
  std::uint64_t embeddings = 0;
  for (auto _ : state) {
    gpusim::TrafficCounters counters;
    const MatchStats stats = engine.match_batch(graph, batch, policy, counters);
    embeddings += stats.positive + stats.negative;
  }
  state.counters["embeddings/batch"] = benchmark::Counter(
      static_cast<double>(embeddings) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch.updates.size()));
}
BENCHMARK(BM_EnumerateBatch)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_BinomialSmallP(benchmark::State& state) {
  Rng rng(5);
  const double p = 1.0 / static_cast<double>(state.range(0));
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += binomial(rng, 1 << 16, p);
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BinomialSmallP)->Arg(100)->Arg(10000)->Arg(1000000);

// CachedPolicy::fetch, the one fetch path of the cached engines: the DCSR
// lookup, then the device-memory or the zero-copy charge. The cache packs
// the highest-degree lists of an SF3K-analog graph within 10% of its
// adjacency bytes (perfbench's budget rule without its 2 MB floor, which
// would cache this small graph whole). The fixed-seed ids are neighbors of
// uniformly drawn vertices, so hubs recur and both hits and misses count.
void BM_CachedFetch(benchmark::State& state) {
  const CsrGraph csr = make_workload_graph("SF3K", 0.05, 3, 12);
  DynamicGraph graph(csr);
  gpusim::Device device;
  gpusim::TrafficCounters build;
  DcsrCache cache;
  cache.build(graph, select_by_degree(graph),
              2 * csr.num_edges() * sizeof(VertexId) / 10, device, build);
  Rng rng(14);
  std::vector<VertexId> ids;
  constexpr std::size_t kIds = 1 << 12;  // a power of two: the index wraps
  while (ids.size() < kIds) {
    const auto u = static_cast<VertexId>(
        rng.bounded(static_cast<std::uint64_t>(graph.num_vertices())));
    const std::span<const VertexId> nbrs = csr.neighbors(u);
    if (!nbrs.empty()) ids.push_back(nbrs[rng.bounded(nbrs.size())]);
  }
  CachedPolicy policy(graph, cache, gpusim::SimParams{});
  gpusim::Traffic traffic;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.fetch(ids[i], ViewMode::kNew, traffic));
    i = (i + 1) & (kIds - 1);
  }
  const std::uint64_t fetches = traffic.cache_hits + traffic.cache_misses;
  state.counters["hit_ratio"] = benchmark::Counter(
      static_cast<double>(traffic.cache_hits) /
      static_cast<double>(std::max<std::uint64_t>(1, fetches)));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedFetch);

void BM_ApplyAndReorganize(benchmark::State& state) {
  Rng rng(7);
  const CsrGraph csr = generate_barabasi_albert(20000, 8, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_fraction = 0.5;
  opt.batch_size = static_cast<std::size_t>(state.range(0));
  opt.seed = 8;
  const UpdateStream stream = make_update_stream(csr, opt);
  std::size_t i = 0;
  DynamicGraph graph(stream.initial);
  for (auto _ : state) {
    if (i >= stream.batches.size()) {
      state.PauseTiming();
      graph = DynamicGraph(stream.initial);
      i = 0;
      state.ResumeTiming();
    }
    graph.apply_batch(stream.batches[i++]);
    graph.reorganize();
  }
  state.SetItemsProcessed(state.iterations() * opt.batch_size);
}
BENCHMARK(BM_ApplyAndReorganize)->Arg(256)->Arg(4096);

void BM_FrequencyEstimator(benchmark::State& state) {
  Rng rng(9);
  const CsrGraph csr = generate_barabasi_albert(20000, 8, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 1024;
  opt.batch_size = 1024;
  opt.seed = 10;
  const UpdateStream stream = make_update_stream(csr, opt);
  DynamicGraph graph(stream.initial);
  graph.apply_batch(stream.batches[0]);
  FrequencyEstimator est(
      make_pattern(1),
      {.num_walks = static_cast<std::uint64_t>(state.range(0))});
  Rng walk_rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        est.estimate(graph, stream.batches[0], walk_rng));
  }
}
BENCHMARK(BM_FrequencyEstimator)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
