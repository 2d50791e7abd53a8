// Google-benchmark microbenchmarks for the library's primitives: the
// candidate kernel every matcher runs (core/intersect.hpp), binomial
// sampling, DCSR lookup, dynamic-graph updates, and the frequency
// estimator. These are the hot paths of the matching kernel and the
// Step-2/Step-5 host phases.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/dcsr_cache.hpp"
#include "core/frequency_estimator.hpp"
#include "core/intersect.hpp"
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

void BM_DcsrLookup(benchmark::State& state) {
  Rng rng(6);
  const CsrGraph csr = generate_barabasi_albert(
      static_cast<VertexId>(state.range(0)), 8, 1, rng);
  DynamicGraph graph(csr);
  gpusim::Device device;
  gpusim::TrafficCounters ctr;
  DcsrCache cache;
  std::vector<VertexId> all(static_cast<std::size_t>(graph.num_vertices()));
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<VertexId>(i);
  }
  cache.build(graph, all, 1ull << 30, device, ctr);
  VertexId probe = 0;
  std::uint32_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(probe, ViewMode::kNew, steps));
    probe = (probe + 7919) % graph.num_vertices();
  }
}
BENCHMARK(BM_DcsrLookup)->Arg(1 << 12)->Arg(1 << 16);

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
