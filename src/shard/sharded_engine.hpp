// Multi-device sharded matching engine (DESIGN.md, "Multi-device
// sharding").
//
// The single-device engines bind one DynamicGraph to one simulated device.
// This engine partitions the data graph across N shards (shard/
// sharded_graph.hpp) — each with its own gpusim::Device, DcsrCache, and
// slice of the cache budget — and runs the five GCSM phases per shard:
//
//   1. update   — the sanitized batch splits by endpoint ownership; each
//                 shard applies its sub-batch (cut records to both owners)
//   2. estimate — per-shard cache order: the per-query walk estimates run
//                 against each shard's graph and sub-batch, combined and
//                 filtered to OWNED vertices (a shard's cache only ever
//                 serves fetches the router sends to it)
//   3. pack     — per-shard DCSR build under budget/N, each shard owning
//                 its own budget ladder (halve on OOM, heal on clean
//                 streaks) — one hot shard degrades alone
//   4. match    — ShardedMatcher routes each delta-join work item to the
//                 shard owning its ΔE anchor and stitches cross-shard
//                 partials at branch levels in Pregel-style supersteps
//   5. reorg    — per shard
//
// Exactness: match counts are bit-identical to the single-device engines
// for every EngineKind, shard count, and partition strategy — the
// ShardedGraph completeness invariant makes every owner-routed view
// byte-identical to the single-device view, and anchor routing enumerates
// each work item exactly once (tests/shard_test.cpp).
//
// Recovery runs the one recovery ladder (core/recovery.hpp) as a single
// transaction over all shards: corruption screening, per-shard snapshots
// before the attempt, rollback of ALL shards on failure, and one attempt
// ladder (retries with backoff, CPU escalation) for the whole batch. Only
// the budget ladder is per shard: an OOM shrinks the shard that raised it.
// Through the batch-commit core (core/batch_commit.hpp), durability logs
// the screened GLOBAL batch once and commits ONE marker per batch carrying
// the aggregated per-shard counters. The sharded engine writes no snapshot
// and does not replay: a recover_on_start over a directory holding a
// snapshot or committed batches throws Error(kRecovery). A directory
// written for one query replays through a single-device Pipeline (counts
// are identical by construction); recover_on_start off discards it and
// starts fresh.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch_commit.hpp"
#include "core/cpu_engine.hpp"
#include "core/frequency_estimator.hpp"
#include "core/phases.hpp"
#include "core/recovery.hpp"
#include "graph/csr_graph.hpp"
#include "shard/sharded_graph.hpp"
#include "shard/sharded_matcher.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcsm::shard {

using QueryId = std::uint32_t;

struct ShardedEngineOptions {
  std::size_t num_shards = 2;
  PartitionStrategy partition = PartitionStrategy::kRange;
  EngineKind kind = EngineKind::kGcsm;
  gpusim::SimParams sim;
  // TOTAL cache budget; each shard's device gets an equal slice.
  std::uint64_t cache_budget_bytes = 256ull << 20;
  EstimatorOptions estimator;
  std::size_t workers = 0;  // shard-task pool threads (0 = num_shards)
  std::uint64_t seed = 7;
  bool check_invariants = GCSM_CHECKS_ENABLED != 0;
  RecoveryOptions recovery;
  DurabilityOptions durability;
  FaultInjector* fault_injector = nullptr;
  // Aggregate metric scope; per-shard series live under
  // metric_prefix + "shard<i>." (e.g. "shard0.pipeline.match_ms").
  std::string metric_prefix;
};

struct ShardQueryReport {
  QueryId id = 0;
  MatchStats stats;
  StitchStats stitch;
};

struct ShardedBatchReport {
  // Aggregate attribution: stats summed across queries, traffic summed
  // across shards, simulated phase times = max over shards (the devices run
  // in parallel), walls measured around the serial host loops.
  BatchReport shared;
  // Per-shard phase attribution (index = shard id), recorded under the
  // "shard<i>." metric scope.
  std::vector<BatchReport> shards;
  // Registration order.
  std::vector<ShardQueryReport> queries;
  // Stitch accounting summed across queries, plus the partition state.
  StitchStats stitch;
  std::uint64_t cut_edges = 0;
  double imbalance = 1.0;
};

class ShardedMatchEngine {
 public:
  ShardedMatchEngine(const CsrGraph& initial, ShardedEngineOptions options);

  // Registers a standing query (1-based id, the match.query fault key).
  // Register every query before the first batch.
  QueryId register_query(QueryGraph query, MatchSink sink = {});

  // One update batch through all five phases on every shard; throws
  // Error(kConfig) when no query is registered. Not thread-safe.
  ShardedBatchReport process_batch(const EdgeBatch& batch);

  // Full static embedding count for one registered query (diagnostic;
  // fault injection suspended).
  std::uint64_t count_current_embeddings(QueryId id);

  const ShardedGraph& sharded_graph() const { return sg_; }
  const ShardedEngineOptions& options() const { return options_; }
  std::uint64_t effective_cache_budget(std::size_t s) const;
  std::uint32_t degradation_level(std::size_t s) const {
    return budgets_[s].level();
  }
  const durable::DurableCounters& cumulative() const {
    return commit_.cumulative();
  }

 private:
  struct QueryState {
    QueryId id = 0;
    std::unique_ptr<ShardedMatcher> matcher;
    std::unique_ptr<FrequencyEstimator> estimator;
    Rng rng;
    MatchSink sink;
  };

  // Each shard's configured share of the total cache budget.
  std::uint64_t budget_slice() const;

  // Phases 1-5 for one transactional attempt. Fills the per-shard reports,
  // the per-query stats, and the aggregate. `oom_shard` receives the shard
  // whose pack OOM'd when DeviceOomError escapes.
  void run_attempt(const EdgeBatch& clean,
                   const std::vector<EdgeBatch>& subs, bool use_cpu,
                   ShardedBatchReport& out, std::size_t& oom_shard);

  ShardedEngineOptions options_;
  ShardedGraph sg_;
  FaultInjector* faults_ = nullptr;
  BatchCommit commit_;
  PipelineMetrics metrics_;                 // aggregate scope
  std::vector<PipelineMetrics> shard_metrics_;  // "shard<i>." scopes
  std::vector<std::unique_ptr<QueryState>> states_;
  ThreadPool pool_;
  // Per-shard OOM degradation of each shard's budget slice.
  std::vector<BudgetLadder> budgets_;
};

}  // namespace gcsm::shard
