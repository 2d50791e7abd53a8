// Differential tests of the enumeration core's candidate-set memo
// (core/enumerate.hpp). The memo must be invisible: a matcher with the
// default memo, with a one-slot memo (every store evicts the last) and with
// a zero-capacity arena (nothing is ever stored, so every set is computed)
// must give the same MatchStats, the same embedding multiset, the same
// Traffic snapshot (charged ops included), the same CountingPolicy access
// counts and, with one worker, the same UM faults and hits. Covered: all five
// access policies, Q1-Q6 unlabeled and labeled, match_full, the
// CandidateFilter path of the RapidFlow-like baseline, and ShardedMatcher at
// 1, 2 and 4 shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/access_policy.hpp"
#include "core/cpu_engine.hpp"
#include "core/dcsr_cache.hpp"
#include "core/enumerate.hpp"
#include "core/rapidflow_like.hpp"
#include "gpusim/device.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "query/plan.hpp"
#include "shard/sharded_graph.hpp"
#include "shard/sharded_matcher.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcsm {
namespace {

// ------------------------------------------------------ CandidateMemo ----

std::vector<VertexId> ids_of(const CandidateMemo::Entry& e) {
  return {e.data, e.data + e.size};
}

TEST(CandidateMemo, FindsWhatItStoredInTheSameScope) {
  CandidateMemo memo;
  memo.begin_scope();
  const std::vector<VertexId> key{4, 9};
  const std::vector<VertexId> set{1, 5, 7};
  EXPECT_EQ(memo.find(2, key), nullptr);
  memo.store(2, key, set, 2, 41);
  const CandidateMemo::Entry* e = memo.find(2, key);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(ids_of(*e), set);
  EXPECT_EQ(e->pulled, 2u);
  EXPECT_EQ(e->ops, 41u);
  // Another level or another key is another set.
  EXPECT_EQ(memo.find(1, key), nullptr);
  EXPECT_EQ(memo.find(2, std::vector<VertexId>{4, 8}), nullptr);
}

TEST(CandidateMemo, NewScopeForgetsEverything) {
  CandidateMemo memo;
  memo.begin_scope();
  const std::vector<VertexId> key{3};
  memo.store(1, key, std::vector<VertexId>{2, 6}, 1, 2);
  ASSERT_NE(memo.find(1, key), nullptr);
  memo.begin_scope();
  EXPECT_EQ(memo.find(1, key), nullptr);
}

TEST(CandidateMemo, StoresEmptySets) {
  CandidateMemo memo;
  memo.begin_scope();
  const std::vector<VertexId> key{3, 4};
  memo.store(1, key, {}, 1, 17);
  const CandidateMemo::Entry* e = memo.find(1, key);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->size, 0u);
  EXPECT_EQ(e->pulled, 1u);
  EXPECT_EQ(e->ops, 17u);
}

TEST(CandidateMemo, OneSlotEvictsButKeepsEvictedSetsReadable) {
  CandidateMemo memo({1, 64});
  memo.begin_scope();
  const std::vector<VertexId> a{10, 11};
  memo.store(1, std::vector<VertexId>{1}, a, 1, 2);
  const CandidateMemo::Entry* first = memo.find(1, std::vector<VertexId>{1});
  ASSERT_NE(first, nullptr);
  const VertexId* stored = first->data;
  memo.store(2, std::vector<VertexId>{2}, std::vector<VertexId>{20}, 1, 1);
  EXPECT_EQ(memo.find(1, std::vector<VertexId>{1}), nullptr);
  ASSERT_NE(memo.find(2, std::vector<VertexId>{2}), nullptr);
  // The arena never reallocates: an evicted set a DFS level still iterates
  // keeps its storage until the scope ends.
  EXPECT_EQ(std::vector<VertexId>(stored, stored + 2), a);
}

TEST(CandidateMemo, SetsThatDoNotFitAreNotStored) {
  CandidateMemo memo({512, 4});
  memo.begin_scope();
  memo.store(1, std::vector<VertexId>{1}, std::vector<VertexId>{1, 2, 3}, 1,
             3);
  ASSERT_NE(memo.find(1, std::vector<VertexId>{1}), nullptr);
  memo.store(1, std::vector<VertexId>{2}, std::vector<VertexId>{4, 5}, 1, 2);
  EXPECT_EQ(memo.find(1, std::vector<VertexId>{2}), nullptr);
  // A new scope reclaims the whole arena.
  memo.begin_scope();
  memo.store(1, std::vector<VertexId>{2}, std::vector<VertexId>{4, 5}, 1, 2);
  EXPECT_NE(memo.find(1, std::vector<VertexId>{2}), nullptr);
}

TEST(CandidateMemo, ZeroCapacityArenaNeverStores) {
  CandidateMemo memo({512, 0});
  memo.begin_scope();
  memo.store(1, std::vector<VertexId>{1}, {}, 1, 5);
  memo.store(1, std::vector<VertexId>{2}, std::vector<VertexId>{7}, 1, 5);
  EXPECT_EQ(memo.find(1, std::vector<VertexId>{1}), nullptr);
  EXPECT_EQ(memo.find(1, std::vector<VertexId>{2}), nullptr);
}

// ---------------------------------------------------------- fixtures ----

constexpr detail::MemoCapacity kDefaultMemo{};
constexpr detail::MemoCapacity kOneSlot{1, kDefaultMemo.arena_ids};
constexpr detail::MemoCapacity kNoArena{kDefaultMemo.slots, 0};
constexpr std::array<detail::MemoCapacity, 2> kShrunk{kOneSlot, kNoArena};

enum class Policy { kHost, kZeroCopy, kUnifiedMemory, kCached, kCounting };
constexpr std::array<Policy, 5> kPolicies{
    Policy::kHost, Policy::kZeroCopy, Policy::kUnifiedMemory, Policy::kCached,
    Policy::kCounting};

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kHost:
      return "host";
    case Policy::kZeroCopy:
      return "zero-copy";
    case Policy::kUnifiedMemory:
      return "um";
    case Policy::kCached:
      return "cached";
    case Policy::kCounting:
      return "counting";
  }
  return "?";
}

std::string memo_name(detail::MemoCapacity m) {
  return std::to_string(m.slots) + " slots/" + std::to_string(m.arena_ids) +
         " ids";
}

// A hub-heavy labeled graph and one batch of inserts and deletes: hubs make
// constraint vertices repeat inside a seed, which is what the memo reuses.
struct Fixture {
  Fixture() {
    Rng rng(1301);
    const CsrGraph g = generate_barabasi_albert(120, 3, 3, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_count = 40;
    opt.batch_size = 40;
    opt.seed = 1302;
    stream = make_update_stream(g, opt);
  }
  const EdgeBatch& batch() const { return stream.batches[0]; }
  UpdateStream stream;
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

QueryGraph query_of(int index, bool labeled) {
  const QueryGraph q = make_pattern(index);
  return labeled ? with_round_robin_labels(q, 3) : q;
}

// What one matcher run observably produced.
struct Outcome {
  MatchStats stats;
  std::vector<std::vector<VertexId>> embeddings;  // seed edge, sign, binding
  std::vector<gpusim::Traffic> traffic;           // one per device or shard
  std::vector<std::uint64_t> access_counts;       // CountingPolicy only
  std::vector<std::uint64_t> stitch;              // ShardedMatcher only
};

// Records every emitted embedding; sorted by finish() into a multiset.
class Recorder {
 public:
  MatchSink sink() {
    return [this](const MatchPlan& plan, std::span<const VertexId> binding,
                  int sign) {
      std::vector<VertexId> row{static_cast<VertexId>(plan.seed_edge_id),
                                static_cast<VertexId>(sign)};
      row.insert(row.end(), binding.begin(), binding.end());
      rows_.push_back(std::move(row));
    };
  }
  std::vector<std::vector<VertexId>> finish() {
    std::sort(rows_.begin(), rows_.end());
    return std::move(rows_);
  }

 private:
  std::vector<std::vector<VertexId>> rows_;
};

std::array<std::uint64_t, 12> fields(const gpusim::Traffic& t) {
  return {t.device_bytes, t.zero_copy_lines, t.zero_copy_bytes, t.dma_calls,
          t.dma_bytes,    t.um_faults,       t.um_hits,         t.compute_ops,
          t.host_ops,     t.host_bytes,      t.cache_hits,      t.cache_misses};
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& what) {
  EXPECT_EQ(got.stats.signed_embeddings, want.stats.signed_embeddings)
      << what;
  EXPECT_EQ(got.stats.positive, want.stats.positive) << what;
  EXPECT_EQ(got.stats.negative, want.stats.negative) << what;
  EXPECT_EQ(got.stats.seeds, want.stats.seeds) << what;
  EXPECT_EQ(got.embeddings, want.embeddings) << what;
  ASSERT_EQ(got.traffic.size(), want.traffic.size()) << what;
  for (std::size_t i = 0; i < got.traffic.size(); ++i) {
    EXPECT_EQ(fields(got.traffic[i]), fields(want.traffic[i]))
        << what << ", traffic " << i;
  }
  EXPECT_EQ(got.access_counts, want.access_counts) << what;
  EXPECT_EQ(got.stitch, want.stitch) << what;
}

// A graph (before or after the batch) and a DCSR cache holding every other
// vertex, so the cached policy both hits and misses. The zero-copy and UM
// charges depend on where the lists lie, so every memo size runs on the same
// rig, each run with a fresh policy (UM's page cache and CountingPolicy's
// counts start empty).
struct PolicyRig {
  PolicyRig(Policy kind, const Fixture& f, bool apply_batch)
      : kind(kind), graph(f.stream.initial) {
    if (apply_batch) graph.apply_batch(f.batch());
    std::vector<VertexId> some;
    for (VertexId v = 0; v < graph.num_vertices(); v += 2) some.push_back(v);
    gpusim::TrafficCounters build;
    cache.build(graph, some, 1 << 24, device, build);
  }

  std::unique_ptr<AccessPolicy> make_policy() const {
    switch (kind) {
      case Policy::kHost:
        return std::make_unique<HostPolicy>(graph);
      case Policy::kZeroCopy:
        return std::make_unique<ZeroCopyPolicy>(graph, params);
      case Policy::kUnifiedMemory:
        return std::make_unique<UnifiedMemoryPolicy>(graph, params);
      case Policy::kCached:
        return std::make_unique<CachedPolicy>(graph, cache, params);
      case Policy::kCounting:
        return std::make_unique<CountingPolicy>(graph);
    }
    return nullptr;
  }

  // UM's page cache is shared by the workers, so its faults and hits are
  // deterministic only with one worker.
  std::size_t workers() const {
    return kind == Policy::kUnifiedMemory ? 1 : 3;
  }

  // Runs `match` (given the engine, a policy, counters and a sink) and
  // collects what it produced.
  template <class Match>
  Outcome run(const QueryGraph& q, detail::MemoCapacity m,
              Match&& match) const {
    gpusim::SimtExecutor exec(workers());
    MatchEngine engine(q, exec, 2, m);
    const std::unique_ptr<AccessPolicy> policy = make_policy();
    Recorder rec;
    const MatchSink sink = rec.sink();
    gpusim::TrafficCounters counters;
    Outcome out;
    out.stats = match(engine, *policy, counters, &sink);
    out.embeddings = rec.finish();
    out.traffic.push_back(counters.snapshot());
    if (const auto* counting =
            dynamic_cast<const CountingPolicy*>(policy.get())) {
      out.access_counts = counting->access_counts();
    }
    return out;
  }

  Policy kind;
  gpusim::SimParams params;
  DynamicGraph graph;
  gpusim::Device device;
  DcsrCache cache;
};

Outcome run_delta(const PolicyRig& rig, const QueryGraph& q,
                  detail::MemoCapacity m) {
  return rig.run(q, m, [&](MatchEngine& engine, AccessPolicy& policy,
                           gpusim::TrafficCounters& counters,
                           const MatchSink* sink) {
    return engine.match_batch(rig.graph, fixture().batch(), policy, counters,
                              sink);
  });
}

Outcome run_full(const PolicyRig& rig, const QueryGraph& q,
                 detail::MemoCapacity m) {
  return rig.run(q, m, [&](MatchEngine& engine, AccessPolicy& policy,
                           gpusim::TrafficCounters& counters,
                           const MatchSink* sink) {
    return engine.match_full(rig.graph, policy, counters, sink);
  });
}

// The RapidFlow-like baseline's path: candidate-size-ordered plans and its
// candidate index as the bind-time CandidateFilter.
Outcome run_filtered(const QueryGraph& q, detail::MemoCapacity m) {
  const Fixture& f = fixture();
  DynamicGraph graph(f.stream.initial);
  CandidateIndex index(q, graph);
  graph.apply_batch(f.batch());
  index.refresh(graph, f.batch());
  std::vector<std::uint64_t> weights(q.num_vertices());
  for (std::uint32_t u = 0; u < q.num_vertices(); ++u) {
    weights[u] = index.count(u);
  }
  std::vector<MatchPlan> plans;
  for (std::uint32_t i = 0; i < q.num_edges(); ++i) {
    plans.push_back(make_delta_plan_weighted(q, i, weights));
  }
  gpusim::SimtExecutor exec(3);
  MatchEngine engine(q, exec, 2, m);
  HostPolicy policy(graph);
  Recorder rec;
  const MatchSink sink = rec.sink();
  gpusim::TrafficCounters counters;
  Outcome out;
  out.stats = engine.match_batch_with_plans(plans, graph, f.batch(), policy,
                                            counters, &sink, &index);
  out.embeddings = rec.finish();
  out.traffic.push_back(counters.snapshot());
  return out;
}

using shard::PartitionStrategy;
using shard::ShardedGraph;
using shard::ShardedMatcher;

// A hash-sharded graph after the batch; every shard caches every other
// vertex it owns, so routed cached fetches both hit and miss. Every memo size
// runs on the same rig, for the reason PolicyRig gives.
struct ShardRig {
  explicit ShardRig(std::size_t shards)
      : sg(fixture().stream.initial, shards, PartitionStrategy::kHash, sim),
        pool(shards) {
    QuarantineReport quarantine;
    batch = sg.sanitize(fixture().batch(), quarantine);
    const std::vector<EdgeBatch> subs = sg.split_batch(batch);
    for (std::size_t s = 0; s < shards; ++s) {
      sg.graph(s).apply_batch(subs[s]);
      std::vector<VertexId> some;
      for (VertexId v = 0; v < sg.num_vertices(); v += 2) {
        if (sg.owner(v) == s) some.push_back(v);
      }
      gpusim::TrafficCounters build;
      sg.cache(s).build(sg.graph(s), some, 1 << 24, sg.device(s), build);
    }
  }

  // The delta match (per-shard traffic and stitch accounting included).
  // For kCpu also the static recount, which runs the same core from vertex
  // seeds and reports no traffic, so the other kinds would repeat it.
  Outcome run(const QueryGraph& q, EngineKind kind, detail::MemoCapacity m) {
    ShardedMatcher matcher(q, sg.num_shards(), 2, m);
    Recorder rec;
    const MatchSink sink = rec.sink();
    Outcome out;
    shard::StitchStats stitch;
    out.stats = matcher.match_batch(kind, sg, batch, pool, &sink, sim,
                                    nullptr, 0.0, &out.traffic, &stitch);
    out.embeddings = rec.finish();
    out.stitch = {stitch.routed_items, stitch.stitch_candidates,
                  stitch.supersteps};
    if (kind != EngineKind::kCpu) return out;

    Recorder full_rec;
    const MatchSink full_sink = full_rec.sink();
    const MatchStats full = matcher.match_full(kind, sg, pool, sim,
                                               &full_sink);
    out.stitch.push_back(full.positive);
    out.stitch.push_back(full.seeds);
    for (auto& row : full_rec.finish()) out.embeddings.push_back(row);
    return out;
  }

  gpusim::SimParams sim;
  ShardedGraph sg;
  ThreadPool pool;
  EdgeBatch batch;
};

// ------------------------------------------------------- differential ----

std::string label_tag(bool labeled) { return labeled ? " labeled, " : ", "; }

class MemoDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MemoDifferential, DeltaMatchEveryPolicy) {
  for (const Policy p : kPolicies) {
    const PolicyRig rig(p, fixture(), true);
    for (const bool labeled : {false, true}) {
      const QueryGraph q = query_of(GetParam(), labeled);
      const Outcome want = run_delta(rig, q, kDefaultMemo);
      if (!labeled) {
        ASSERT_NE(want.stats.positive + want.stats.negative, 0u)
            << q.name() << " finds nothing; the comparison would be vacuous";
      }
      for (const detail::MemoCapacity m : kShrunk) {
        expect_same(run_delta(rig, q, m), want,
                    q.name() + label_tag(labeled) + policy_name(p) + ", " +
                        memo_name(m));
      }
    }
  }
}

TEST_P(MemoDifferential, MatchFullEveryPolicy) {
  for (const Policy p : kPolicies) {
    const PolicyRig rig(p, fixture(), false);
    for (const bool labeled : {false, true}) {
      const QueryGraph q = query_of(GetParam(), labeled);
      const Outcome want = run_full(rig, q, kDefaultMemo);
      for (const detail::MemoCapacity m : kShrunk) {
        expect_same(run_full(rig, q, m), want,
                    "match_full " + q.name() + label_tag(labeled) +
                        policy_name(p) + ", " + memo_name(m));
      }
    }
  }
}

TEST_P(MemoDifferential, CandidateFilterPath) {
  for (const bool labeled : {false, true}) {
    const QueryGraph q = query_of(GetParam(), labeled);
    const Outcome want = run_filtered(q, kDefaultMemo);
    for (const detail::MemoCapacity m : kShrunk) {
      expect_same(run_filtered(q, m), want,
                  "filtered " + q.name() + label_tag(labeled) + memo_name(m));
    }
  }
}

TEST_P(MemoDifferential, ShardedMatcher) {
  constexpr std::array<EngineKind, 4> kKinds{
      EngineKind::kGcsm, EngineKind::kZeroCopy, EngineKind::kUnifiedMemory,
      EngineKind::kCpu};
  for (const std::size_t shards : {1, 2, 4}) {
    ShardRig rig(shards);
    for (const bool labeled : {false, true}) {
      const QueryGraph q = query_of(GetParam(), labeled);
      for (const EngineKind kind : kKinds) {
        const Outcome want = rig.run(q, kind, kDefaultMemo);
        for (const detail::MemoCapacity m : kShrunk) {
          expect_same(rig.run(q, kind, m), want,
                      "sharded " + q.name() + label_tag(labeled) +
                          std::to_string(shards) + " shards, " +
                          engine_kind_name(kind) + ", " + memo_name(m));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Q1toQ6, MemoDifferential, ::testing::Range(1, 7));

}  // namespace
}  // namespace gcsm
