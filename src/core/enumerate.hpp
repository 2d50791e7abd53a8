// The enumeration core: the one explicit-stack DFS that every matcher runs
// (MatchEngine per seed edge, ShardedMatcher per partial match).
//
// Mechanics, following STMatch: an explicit per-worker stack of candidate
// sets (no recursion), one level per pattern vertex beyond the seed pair. A
// level's candidates come from the candidate kernel (core/intersect.hpp),
// which intersects the constraint views where they lie; the set the DFS
// iterates keeps only the candidates whose label matches the level's query
// vertex. Injectivity and the optional CandidateFilter are checked when a
// candidate is bound. A DescentHook may take a partial match over before the
// DFS computes a level (ShardedMatcher ships it to another shard there).
//
// Candidate-set reuse (DESIGN.md §5): a level whose constraint vertices
// repeat gets the same set, so each worker keeps a bounded memo keyed by
// (level, the bound vertices at the level's constraint positions), scoped to
// one call of enumerate(). A hit re-issues the fetches the original
// computation made, in order, and charges its recorded ops, so traffic, the
// stateful policies (UM's page cache, CountingPolicy's counts) and every
// simulated number are exactly those of recomputing the set.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/access_policy.hpp"
#include "core/intersect.hpp"
#include "graph/dynamic_graph.hpp"
#include "query/plan.hpp"
#include "query/query_graph.hpp"

namespace gcsm {

struct MatchStats {
  std::int64_t signed_embeddings = 0;  // net change in embedding count
  std::uint64_t positive = 0;          // embeddings created by the batch
  std::uint64_t negative = 0;          // embeddings destroyed by the batch
  std::uint64_t seeds = 0;             // seed edges enumerated

  MatchStats& operator+=(const MatchStats& o) {
    signed_embeddings += o.signed_embeddings;
    positive += o.positive;
    negative += o.negative;
    seeds += o.seeds;
    return *this;
  }
};

// Called under a lock for every embedding found: binding[i] is the data
// vertex matched to the plan's vertex_order[i]; sign is +1/-1.
using MatchSink =
    std::function<void(const MatchPlan&, std::span<const VertexId>, int)>;

// Optional per-query-vertex candidate filter (used by the RapidFlow-like
// baseline's candidate index).
class CandidateFilter {
 public:
  virtual ~CandidateFilter() = default;
  virtual bool admits(std::uint32_t query_vertex, VertexId v) const = 0;
};

// Serializes a launch's sink calls; a null sink makes emit() a no-op.
class SinkLock {
 public:
  explicit SinkLock(const MatchSink* sink) : sink_(sink) {}
  void emit(const MatchPlan& plan, std::span<const VertexId> binding,
            int sign) {
    if (sink_ == nullptr) return;
    std::lock_guard<std::mutex> lk(mu_);
    (*sink_)(plan, binding, sign);
  }

 private:
  const MatchSink* sink_;
  std::mutex mu_;
};

using Bindings = std::array<VertexId, kMaxQueryVertices>;

namespace detail {

// Size of a worker's candidate-set memo. Matchers take it as a constructor
// argument only so that tests can shrink it; production code keeps the
// default.
struct MemoCapacity {
  std::size_t slots = 512;        // direct-mapped; a power of two
  std::size_t arena_ids = 16384;  // ids stored per enumerate() call
};

}  // namespace detail

// The per-worker candidate-set memo: a direct-mapped table over an arena
// that is allocated once, on first use, and never reallocates, so a level
// iterating a stored set is never invalidated by a later store. A set that
// does not fit in the arena's remainder is not stored.
class CandidateMemo {
 public:
  struct Entry {
    const VertexId* data = nullptr;
    std::uint32_t size = 0;
    std::uint32_t pulled = 0;  // constraint views the computation fetched
    std::uint64_t ops = 0;     // the ops it charged
  };

  explicit CandidateMemo(detail::MemoCapacity capacity = {});

  // Starts a new scope (one seed or partial): forgets every entry.
  void begin_scope();

  // The entry stored for (level, key) in this scope, or nullptr.
  const Entry* find(std::uint32_t level, std::span<const VertexId> key) const;

  // Stores a copy of `set` for (level, key), evicting the slot's entry, if
  // the arena has room for it. A zero-capacity arena stores nothing.
  void store(std::uint32_t level, std::span<const VertexId> key,
             std::span<const VertexId> set, std::uint32_t pulled,
             std::uint64_t ops);

 private:
  struct Slot {
    std::uint32_t scope = 0;  // 0 = never written
    std::uint32_t level = 0;
    Entry entry;
    std::array<VertexId, kMaxQueryVertices - 1> key{};
  };

  std::size_t slot_of(std::uint32_t level,
                      std::span<const VertexId> key) const;

  detail::MemoCapacity capacity_;
  std::vector<Slot> slots_;
  std::unique_ptr<VertexId[]> arena_;  // capacity_.arena_ids, once used
  std::size_t arena_used_ = 0;
  std::uint32_t scope_ = 0;
};

// One worker's DFS state. Traffic and charged ops accumulate here without
// contention; the matcher folds them into its launch counters once.
struct EnumerationScratch {
  std::array<std::vector<VertexId>, kMaxQueryVertices> cand;
  std::array<std::span<const VertexId>, kMaxQueryVertices> level_set;
  std::array<std::uint32_t, kMaxQueryVertices> cursor{};
  KernelScratch kernel;
  CandidateMemo memo;
  gpusim::Traffic traffic;
  std::uint64_t ops = 0;  // charged intersection/materialization ops
  MatchStats stats;
};

// Consulted before the DFS computes a level's candidates, the entry level
// included. Returning true means the hook took the partial match
// bound[0, level + 2) over, so the DFS does not descend into `level`.
class DescentHook {
 public:
  virtual ~DescentHook() = default;
  virtual bool divert(std::uint32_t level, const Bindings& bound) = 0;
};

// What one launch's DFS calls share. Labels are read from `labels`.
struct EnumerationEnv {
  const QueryGraph& query;
  const DynamicGraph& labels;
  AccessPolicy& policy;
  SinkLock& sink;
  const CandidateFilter* filter = nullptr;
  DescentHook* hook = nullptr;
};

// Enumerates every completion of the partial match bound[0, entry + 2) under
// `plan`, starting at level `entry`, and emits each with `sign`. Seeds start
// at entry 0 with bound[0], bound[1] set. The caller counts seeds.
void enumerate(const EnumerationEnv& env, const MatchPlan& plan,
               std::uint32_t entry, const Bindings& bound, int sign,
               EnumerationScratch& scratch);

}  // namespace gcsm
