#include "core/cpu_engine.hpp"

#include "core/list_ref.hpp"
#include "util/timer.hpp"

namespace gcsm {
namespace {

// One per worker (block), cache-line aligned so that workers never share a
// line. Traffic and charged ops accumulate in `dfs` without contention and
// are folded into the launch's counters once, by LaunchFold.
struct alignas(64) WorkerScratch {
  EnumerationScratch dfs;
  std::vector<VertexId> seeds;  // match_full's seed targets
  double busy_seconds = 0.0;
};

std::vector<WorkerScratch> make_workers(std::size_t n,
                                        detail::MemoCapacity memo) {
  std::vector<WorkerScratch> workers(n);
  for (WorkerScratch& w : workers) w.dfs.memo = CandidateMemo(memo);
  return workers;
}

// Folds every worker's traffic and ops into the launch's counters when the
// launch ends, including by a throw, so traffic charged before the throw
// still lands. Ops go to the side of the cost model the policy runs on:
// SIMT compute for device policies, host ops for CPU policies.
class LaunchFold {
 public:
  LaunchFold(std::vector<WorkerScratch>& workers, const AccessPolicy& policy,
             gpusim::TrafficCounters& counters)
      : workers_(workers), policy_(policy), counters_(counters) {}
  LaunchFold(const LaunchFold&) = delete;
  LaunchFold& operator=(const LaunchFold&) = delete;
  ~LaunchFold() {
    for (WorkerScratch& w : workers_) {
      if (policy_.on_device()) {
        w.dfs.traffic.compute_ops += w.dfs.ops;
      } else {
        w.dfs.traffic.host_ops += w.dfs.ops;
      }
      counters_.add(w.dfs.traffic);
    }
  }

 private:
  std::vector<WorkerScratch>& workers_;
  const AccessPolicy& policy_;
  gpusim::TrafficCounters& counters_;
};

}  // namespace

MatchEngine::MatchEngine(QueryGraph query, gpusim::SimtExecutor& executor,
                         std::size_t grain, detail::MemoCapacity memo)
    : query_(std::move(query)),
      static_plan_(make_static_plan(query_)),
      delta_plans_(make_delta_plans(query_)),
      executor_(executor),
      grain_(grain),
      memo_(memo) {}

MatchStats MatchEngine::match_batch(const DynamicGraph& graph,
                                    const EdgeBatch& batch,
                                    AccessPolicy& policy,
                                    gpusim::TrafficCounters& counters,
                                    const MatchSink* sink,
                                    const CandidateFilter* filter) {
  return match_batch_with_plans(delta_plans_, graph, batch, policy, counters,
                                sink, filter);
}

MatchStats MatchEngine::match_batch_with_plans(
    const std::vector<MatchPlan>& plans, const DynamicGraph& graph,
    const EdgeBatch& batch, AccessPolicy& policy,
    gpusim::TrafficCounters& counters, const MatchSink* sink,
    const CandidateFilter* filter,
    std::vector<double>* per_block_busy_seconds) {
  // Work item space: plan x batch edge x orientation, flattened so work
  // stealing balances hot seed edges across blocks.
  const std::size_t per_plan = batch.updates.size() * 2;
  const std::size_t total = plans.size() * per_plan;

  std::vector<WorkerScratch> scratch =
      make_workers(executor_.num_blocks(), memo_);
  const LaunchFold fold(scratch, policy, counters);
  SinkLock sink_lock(sink);
  const EnumerationEnv env{query_, graph, policy, sink_lock, filter, nullptr};

  const bool record_busy = per_block_busy_seconds != nullptr;
  executor_.for_each_item(total, grain_, [&](std::size_t item,
                                             std::size_t block) {
    const std::size_t plan_idx = item / per_plan;
    const std::size_t rest = item % per_plan;
    const EdgeUpdate& e = batch.updates[rest / 2];
    const bool swap = (rest % 2) != 0;
    const VertexId xa = swap ? e.v : e.u;
    const VertexId xb = swap ? e.u : e.v;
    const MatchPlan& plan = plans[plan_idx];

    // ΔR_i: the update edge must match the seed query edge's labels.
    if (!query_.label_matches(plan.seed_a, graph.label(xa))) return;
    if (!query_.label_matches(plan.seed_b, graph.label(xb))) return;
    if (filter != nullptr && (!filter->admits(plan.seed_a, xa) ||
                              !filter->admits(plan.seed_b, xb))) {
      return;
    }
    Timer seed_timer;
    WorkerScratch& s = scratch[block];
    ++s.dfs.stats.seeds;
    enumerate(env, plan, 0, Bindings{xa, xb}, e.sign, s.dfs);
    if (record_busy) s.busy_seconds += seed_timer.seconds();
  });

  MatchStats stats;
  for (const WorkerScratch& s : scratch) stats += s.dfs.stats;
  if (per_block_busy_seconds != nullptr) {
    per_block_busy_seconds->clear();
    for (const WorkerScratch& s : scratch) {
      per_block_busy_seconds->push_back(s.busy_seconds);
    }
  }
  return stats;
}

MatchStats MatchEngine::match_full(const DynamicGraph& graph,
                                   AccessPolicy& policy,
                                   gpusim::TrafficCounters& counters,
                                   const MatchSink* sink) {
  std::vector<WorkerScratch> scratch =
      make_workers(executor_.num_blocks(), memo_);
  const LaunchFold fold(scratch, policy, counters);
  SinkLock sink_lock(sink);
  const EnumerationEnv env{query_, graph, policy, sink_lock, nullptr, nullptr};
  const MatchPlan& plan = static_plan_;

  executor_.for_each_item(
      static_cast<std::size_t>(graph.num_vertices()), grain_ * 16,
      [&](std::size_t item, std::size_t block) {
        const auto xa = static_cast<VertexId>(item);
        if (!query_.label_matches(plan.seed_a, graph.label(xa))) return;
        // Scan xa's live neighbors as seed targets (both orientations are
        // covered because every ordered pair (xa, xb) is its own item).
        WorkerScratch& s = scratch[block];
        const NeighborView view =
            policy.fetch(xa, ViewMode::kNew, s.dfs.traffic);
        s.seeds.clear();
        materialize_view(view, s.seeds);
        s.dfs.ops += s.seeds.size();
        for (const VertexId xb : s.seeds) {
          if (!query_.label_matches(plan.seed_b, graph.label(xb))) continue;
          ++s.dfs.stats.seeds;
          enumerate(env, plan, 0, Bindings{xa, xb}, +1, s.dfs);
        }
      });

  MatchStats stats;
  for (const WorkerScratch& s : scratch) stats += s.dfs.stats;
  return stats;
}

}  // namespace gcsm
