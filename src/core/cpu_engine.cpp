#include "core/cpu_engine.hpp"

#include <mutex>

#include "core/intersect.hpp"
#include "core/list_ref.hpp"
#include "util/timer.hpp"

namespace gcsm {
namespace {

// One per worker (block), cache-line aligned so that workers never share a
// line. Traffic and charged ops accumulate here without contention and are
// folded into the launch's counters once, by LaunchFold.
struct alignas(64) WorkerScratch {
  std::array<std::vector<VertexId>, kMaxQueryVertices> cand;
  std::array<std::uint32_t, kMaxQueryVertices> cursor{};
  KernelScratch kernel;
  std::vector<VertexId> seeds;  // match_full's seed targets
  gpusim::TrafficCounters traffic;
  std::uint64_t ops = 0;  // charged intersection/materialization ops
  MatchStats stats;
  double busy_seconds = 0.0;
};

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
        w.traffic.add_compute(w.ops);
      } else {
        w.traffic.add_host(w.ops, 0);
      }
      counters_.add(w.traffic.snapshot());
    }
  }

 private:
  std::vector<WorkerScratch>& workers_;
  const AccessPolicy& policy_;
  gpusim::TrafficCounters& counters_;
};

// Computes the candidate buffer for `level` of `plan` given the bindings so
// far. Returns false if the candidate set is empty.
bool compute_level(const MatchPlan& plan, std::uint32_t level,
                   const std::array<VertexId, kMaxQueryVertices>& bound,
                   AccessPolicy& policy, WorkerScratch& scratch) {
  const PlanLevel& pl = plan.levels[level];
  std::vector<VertexId>& out = scratch.cand[level];
  scratch.ops += compute_candidates(
      pl.constraints.size(),
      [&](std::size_t i) {
        const BackwardConstraint& c = pl.constraints[i];
        return policy.fetch(bound[c.order_pos], c.view, scratch.traffic);
      },
      out, scratch.kernel);
  return !out.empty();
}

class SinkLock {
 public:
  explicit SinkLock(const MatchSink* sink) : sink_(sink) {}
  void emit(const MatchPlan& plan,
            std::span<const VertexId> binding, int sign) {
    if (sink_ == nullptr) return;
    std::lock_guard<std::mutex> lk(mu_);
    (*sink_)(plan, binding, sign);
  }

 private:
  const MatchSink* sink_;
  std::mutex mu_;
};

// Explicit-stack DFS from one bound seed edge (the STMatch kernel shape).
void enumerate_seed(const QueryGraph& query, const MatchPlan& plan,
                    const DynamicGraph& graph, VertexId xa, VertexId xb,
                    int sign, AccessPolicy& policy, WorkerScratch& scratch,
                    SinkLock& sink, const CandidateFilter* filter) {
  const std::uint32_t num_levels = plan.num_levels();
  std::array<VertexId, kMaxQueryVertices> bound{};
  bound[0] = xa;
  bound[1] = xb;
  ++scratch.stats.seeds;

  auto emit = [&](std::uint32_t depth) {
    scratch.stats.signed_embeddings += sign;
    if (sign > 0) {
      ++scratch.stats.positive;
    } else {
      ++scratch.stats.negative;
    }
    sink.emit(plan, std::span<const VertexId>(bound.data(), depth), sign);
  };

  if (num_levels == 0) {
    emit(2);
    return;
  }

  std::int32_t level = 0;
  if (!compute_level(plan, 0, bound, policy, scratch)) return;
  scratch.cursor[0] = 0;

  while (level >= 0) {
    auto& cand = scratch.cand[level];
    auto& cur = scratch.cursor[level];
    if (cur >= cand.size()) {
      --level;
      continue;
    }
    const VertexId v = cand[cur++];
    const PlanLevel& pl = plan.levels[level];

    // Label, injectivity, and optional index filters at bind time.
    if (!query.label_matches(pl.query_vertex, graph.label(v))) continue;
    bool duplicate = false;
    const std::uint32_t bound_count = 2 + static_cast<std::uint32_t>(level);
    for (std::uint32_t i = 0; i < bound_count; ++i) {
      if (bound[i] == v) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    if (filter != nullptr && !filter->admits(pl.query_vertex, v)) continue;

    bound[bound_count] = v;
    if (static_cast<std::uint32_t>(level) + 1 == num_levels) {
      emit(bound_count + 1);
      continue;
    }
    ++level;
    if (!compute_level(plan, static_cast<std::uint32_t>(level), bound, policy,
                       scratch)) {
      --level;
      continue;
    }
    scratch.cursor[level] = 0;
  }
}

}  // namespace

MatchEngine::MatchEngine(QueryGraph query, gpusim::SimtExecutor& executor,
                         std::size_t grain)
    : query_(std::move(query)),
      static_plan_(make_static_plan(query_)),
      delta_plans_(make_delta_plans(query_)),
      executor_(executor),
      grain_(grain) {}

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

  std::vector<WorkerScratch> scratch(executor_.num_blocks());
  const LaunchFold fold(scratch, policy, counters);
  SinkLock sink_lock(sink);

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
    enumerate_seed(query_, plan, graph, xa, xb, e.sign, policy,
                   scratch[block], sink_lock, filter);
    if (record_busy) scratch[block].busy_seconds += seed_timer.seconds();
  });

  MatchStats stats;
  for (const WorkerScratch& s : scratch) stats += s.stats;
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
  std::vector<WorkerScratch> scratch(executor_.num_blocks());
  const LaunchFold fold(scratch, policy, counters);
  SinkLock sink_lock(sink);
  const MatchPlan& plan = static_plan_;

  executor_.for_each_item(
      static_cast<std::size_t>(graph.num_vertices()), grain_ * 16,
      [&](std::size_t item, std::size_t block) {
        const auto xa = static_cast<VertexId>(item);
        if (!query_.label_matches(plan.seed_a, graph.label(xa))) return;
        // Scan xa's live neighbors as seed targets (both orientations are
        // covered because every ordered pair (xa, xb) is its own item).
        WorkerScratch& s = scratch[block];
        const NeighborView view = policy.fetch(xa, ViewMode::kNew, s.traffic);
        s.seeds.clear();
        materialize_view(view, s.seeds);
        s.ops += s.seeds.size();
        for (const VertexId xb : s.seeds) {
          if (!query_.label_matches(plan.seed_b, graph.label(xb))) continue;
          enumerate_seed(query_, plan, graph, xa, xb, +1, policy, s,
                         sink_lock, nullptr);
        }
      });

  MatchStats stats;
  for (const WorkerScratch& s : scratch) stats += s.stats;
  return stats;
}

}  // namespace gcsm
