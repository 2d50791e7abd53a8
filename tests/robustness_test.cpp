// Edge cases, adversarial inputs, and randomized cross-checks that don't
// fit the per-module files: empty structures, degenerate batches, stress
// configurations, and distribution checks on the randomized components.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/frequency_estimator.hpp"
#include "core/intersect.hpp"
#include "core/pipeline.hpp"
#include "core/reference_matcher.hpp"
#include "gpusim/page_cache.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "util/rng.hpp"

namespace gcsm {
namespace {

// ------------------------------------------------------- degenerate -------

TEST(Robustness, EmptyBatchProducesZeroDelta) {
  DynamicGraph g(CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}}));
  EdgeBatch empty;
  g.apply_batch(empty);
  gpusim::SimtExecutor exec(2);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(g);
  gpusim::TrafficCounters c;
  const MatchStats stats = engine.match_batch(g, empty, policy, c);
  EXPECT_EQ(stats.signed_embeddings, 0);
  EXPECT_EQ(stats.seeds, 0u);
  g.reorganize();
}

TEST(Robustness, GraphWithNoMatchesAnywhere) {
  // A star has no triangles; every update still produces zero.
  const CsrGraph star =
      CsrGraph::from_edges(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  DynamicGraph g(star);
  EdgeBatch batch;
  batch.updates.push_back({1, 0, -1});
  g.apply_batch(batch);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(g);
  gpusim::TrafficCounters c;
  EXPECT_EQ(engine.match_batch(g, batch, policy, c).signed_embeddings, 0);
}

TEST(Robustness, QuerySingleEdge) {
  // The smallest query: one edge, 0 extension levels. Each inserted edge
  // yields exactly 2 embeddings (both orientations).
  DynamicGraph g(CsrGraph::from_edges(4, {{0, 1}}));
  EdgeBatch batch;
  batch.updates.push_back({2, 3, +1});
  g.apply_batch(batch);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_path(1), exec);
  HostPolicy policy(g);
  gpusim::TrafficCounters c;
  const MatchStats stats = engine.match_batch(g, batch, policy, c);
  EXPECT_EQ(stats.signed_embeddings, 2);
}

TEST(Robustness, IsolatedVertexGraph) {
  const CsrGraph g0 = CsrGraph::from_edges(10, {{0, 1}});
  DynamicGraph g(g0);
  EXPECT_EQ(g.live_degree(5), 0u);
  const NeighborView v = g.view(5, ViewMode::kNew);
  EXPECT_EQ(v.size_bound(), 0u);
  EdgeBatch batch;
  batch.updates.push_back({5, 6, +1});
  g.apply_batch(batch);
  EXPECT_TRUE(g.has_live_edge(5, 6));
}

TEST(Robustness, MaxSizeQueryEightVertices) {
  Rng rng(77);
  const CsrGraph g = generate_erdos_renyi(24, 110, 1, rng);
  const QueryGraph q = make_clique(4);
  const QueryGraph cycle8 = make_cycle(8);
  DynamicGraph dyn(g);
  gpusim::SimtExecutor exec(2);
  HostPolicy policy(dyn);
  gpusim::TrafficCounters c;
  {
    MatchEngine engine(cycle8, exec);
    EXPECT_EQ(engine.match_full(dyn, policy, c).positive,
              reference_count_embeddings(g, cycle8));
  }
  {
    MatchEngine engine(q, exec);
    EXPECT_EQ(engine.match_full(dyn, policy, c).positive,
              reference_count_embeddings(g, q));
  }
}

// ---------------------------------------------------- engine details ------

TEST(Robustness, GrainSizeDoesNotChangeResults) {
  Rng rng(88);
  const CsrGraph base = generate_barabasi_albert(200, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 120;
  opt.batch_size = 120;
  opt.seed = 89;
  const UpdateStream stream = make_update_stream(base, opt);
  const QueryGraph q = make_pattern(3);

  std::set<std::int64_t> results;
  for (const std::size_t grain : {1ull, 2ull, 16ull, 1024ull}) {
    DynamicGraph dyn(stream.initial);
    dyn.apply_batch(stream.batches[0]);
    gpusim::SimtExecutor exec(3);
    MatchEngine engine(q, exec, grain);
    HostPolicy policy(dyn);
    gpusim::TrafficCounters c;
    results.insert(
        engine.match_batch(dyn, stream.batches[0], policy, c)
            .signed_embeddings);
  }
  EXPECT_EQ(results.size(), 1u);
}

TEST(Robustness, WorkerCountDoesNotChangeResults) {
  Rng rng(99);
  const CsrGraph base = generate_barabasi_albert(300, 5, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_count = 150;
  opt.batch_size = 150;
  opt.seed = 100;
  const UpdateStream stream = make_update_stream(base, opt);
  const QueryGraph q = make_pattern(4);

  std::set<std::int64_t> results;
  for (const std::size_t workers : {1ull, 2ull, 5ull, 9ull}) {
    DynamicGraph dyn(stream.initial);
    dyn.apply_batch(stream.batches[0]);
    gpusim::SimtExecutor exec(workers);
    MatchEngine engine(q, exec);
    HostPolicy policy(dyn);
    gpusim::TrafficCounters c;
    results.insert(
        engine.match_batch(dyn, stream.batches[0], policy, c)
            .signed_embeddings);
  }
  EXPECT_EQ(results.size(), 1u);
}

TEST(Robustness, SeedsCountedPerOrientationAndPlan) {
  // 1 update edge, unlabeled triangle: 3 plans x 2 orientations = 6 seeds.
  DynamicGraph g(CsrGraph::from_edges(4, {{0, 1}, {1, 2}}));
  EdgeBatch batch;
  batch.updates.push_back({0, 2, +1});
  g.apply_batch(batch);
  gpusim::SimtExecutor exec(1);
  MatchEngine engine(make_triangle(), exec);
  HostPolicy policy(g);
  gpusim::TrafficCounters c;
  const MatchStats stats = engine.match_batch(g, batch, policy, c);
  EXPECT_EQ(stats.seeds, 6u);
}

// ---------------------------------------------------- intersect fuzz ------

NeighborView plain_view(const std::vector<VertexId>& ids) {
  NeighborView v;
  v.prefix = {ids.data(), static_cast<std::uint32_t>(ids.size())};
  return v;
}

TEST(Robustness, IntersectFuzzAgainstStl) {
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t na = rng.bounded(200);
    const std::size_t nb = rng.bounded(3000);
    std::set<VertexId> sa, sb;
    for (std::size_t i = 0; i < na; ++i) {
      sa.insert(static_cast<VertexId>(rng.bounded(4000)));
    }
    for (std::size_t i = 0; i < nb; ++i) {
      sb.insert(static_cast<VertexId>(rng.bounded(4000)));
    }
    const std::vector<VertexId> a(sa.begin(), sa.end());
    const std::vector<VertexId> b(sb.begin(), sb.end());
    std::vector<VertexId> expect;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));
    const std::vector<NeighborView> views{plain_view(a), plain_view(b)};
    std::vector<VertexId> got;
    KernelScratch scratch;
    compute_candidates(
        views.size(), [&](std::size_t i) { return views[i]; }, got, scratch);
    ASSERT_EQ(got, expect)
        << "trial " << trial;
  }
}

// ----------------------------------------------------- page cache ---------

TEST(Robustness, PageCacheConcurrentAccessIsSafe) {
  gpusim::PageCache cache(64 * 4096, 4096);
  gpusim::TrafficCounters counters;
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) {
      }
      for (int i = 0; i < 5000; ++i) {
        const auto addr = reinterpret_cast<const void*>(
            static_cast<std::uintptr_t>((i * 7919 + t * 131) % 512) * 4096);
        cache.access(addr, 64, counters);
      }
    });
  }
  go = true;
  for (auto& t : threads) t.join();
  const auto traffic = counters.snapshot();
  EXPECT_EQ(traffic.um_faults + traffic.um_hits, 4u * 5000u);
  EXPECT_LE(cache.resident_pages(), 64u);
}

// ------------------------------------------------ estimator regimes -------

TEST(Robustness, EstimatorCoversLowDegreeGraphsDeeply) {
  // Road-network regime: D tiny, so walks descend with high probability and
  // even deep-level vertices get sampled.
  Rng rng(55);
  const CsrGraph base = generate_road_network(60, 60, 0.95, 0.05, 1, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_fraction = 0.1;
  opt.batch_size = 200;
  opt.seed = 56;
  const UpdateStream stream = make_update_stream(base, opt);
  DynamicGraph dyn(stream.initial);
  dyn.apply_batch(stream.batches[0]);

  FrequencyEstimator est(make_path(3), {.num_walks = 1 << 16});
  Rng walk_rng(57);
  const EstimateResult r = est.estimate(dyn, stream.batches[0], walk_rng);
  // Deep sampling: visited nodes must exceed the seed count by a healthy
  // factor (walks survive multiple levels when |V|/D is large).
  EXPECT_GT(r.nodes_visited, 4 * 2 * stream.batches[0].size());
}

TEST(Robustness, PipelineSurvivesManyConsecutiveBatches) {
  Rng rng(66);
  const CsrGraph base = generate_barabasi_albert(500, 4, 2, rng);
  UpdateStreamOptions opt;
  opt.pool_edge_fraction = 0.5;
  opt.batch_size = 32;
  opt.seed = 67;
  const UpdateStream stream = make_update_stream(base, opt);
  PipelineOptions popt;
  popt.kind = EngineKind::kGcsm;
  popt.workers = 2;
  popt.cache_budget_bytes = 1 << 20;
  popt.estimator.num_walks = 8192;
  Pipeline pipe(stream.initial, make_triangle(), popt);
  std::int64_t total = static_cast<std::int64_t>(
      reference_count_embeddings(stream.initial, make_triangle()));
  for (const EdgeBatch& batch : stream.batches) {
    total += pipe.process_batch(batch).stats.signed_embeddings;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(reference_count_embeddings(
                       pipe.graph().to_csr(), make_triangle())));
  EXPECT_GE(stream.num_batches(), 10u);
}

}  // namespace
}  // namespace gcsm
