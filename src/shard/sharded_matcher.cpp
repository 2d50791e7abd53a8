#include "shard/sharded_matcher.hpp"

#include <memory>

#include "core/access_policy.hpp"
#include "core/enumerate.hpp"
#include "core/list_ref.hpp"
#include "gpusim/simt_executor.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace gcsm::shard {
namespace {

// One access policy per target shard, owned by one shard task: stateful
// policies (the UM page cache) must never be shared across tasks, while the
// const-reference policies (cached / zero-copy / host) are cheap per task.
class RoutedShardPolicy final : public AccessPolicy {
 public:
  RoutedShardPolicy(EngineKind kind, const ShardedGraph& sg,
                    const gpusim::SimParams& sim)
      : sg_(sg), on_device_(kind != EngineKind::kCpu) {
    for (std::size_t s = 0; s < sg.num_shards(); ++s) {
      policies_.push_back(
          make_access_policy(kind, sg.graph(s), sg.cache(s), sim));
    }
  }

  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::Traffic& traffic) override {
    return policies_[sg_.owner(v)]->fetch(v, mode, traffic);
  }
  bool on_device() const override { return on_device_; }

 private:
  const ShardedGraph& sg_;
  bool on_device_;
  std::vector<std::unique_ptr<AccessPolicy>> policies_;
};

// One per shard task, cache-line aligned so that concurrently running shard
// tasks never share a line. The shard's traffic and charged ops accumulate
// in `dfs` without contention.
struct alignas(64) ShardScratch {
  EnumerationScratch dfs;
  std::vector<VertexId> seeds;  // match_full's seed targets
  std::uint64_t routed_items = 0;
  std::uint64_t migrated = 0;

  // Charges the accumulated ops the way core/cpu_engine.cpp does: SIMT
  // compute for device policies, host ops for the CPU fallback.
  gpusim::Traffic charged_traffic(const AccessPolicy& policy) {
    if (policy.on_device()) {
      dfs.traffic.compute_ops += dfs.ops;
    } else {
      dfs.traffic.host_ops += dfs.ops;
    }
    dfs.ops = 0;
    return dfs.traffic;
  }
};

std::vector<ShardScratch> make_scratch(std::size_t n,
                                       detail::MemoCapacity memo) {
  std::vector<ShardScratch> scratch(n);
  for (ShardScratch& s : scratch) s.dfs.memo = CandidateMemo(memo);
  return scratch;
}

// A partial match in flight between shards: resume the DFS at `level`
// (whose candidates have not been computed yet) with bound[0..level+2)
// already fixed.
struct Partial {
  std::uint32_t plan_idx = 0;
  std::int8_t sign = +1;
  std::uint32_t level = 0;
  Bindings bound{};
};

// One shard task of a launch: its scratch and the DFS environment over this
// shard's graph (labels are global) and routed policy. The task is also the
// DFS's descent hook, which is the stitch: before the DFS computes a BRANCH
// level whose anchor vertex is owned by another shard, the partial is
// shipped to that owner instead. Inbox partials never re-migrate at their
// entry level: they were routed to its anchor's owner.
struct ShardTask final : DescentHook {
  ShardTask(std::uint32_t shard, const QueryGraph& query,
            const std::vector<MatchPlan>& plans,
            const std::vector<std::vector<std::uint8_t>>& stitch,
            const ShardedGraph& sg, AccessPolicy& policy, SinkLock& sink,
            std::vector<std::vector<Partial>>& outbox, ShardScratch& scratch)
      : shard(shard),
        plans(plans),
        stitch(stitch),
        part(sg.partitioner()),
        outbox(outbox),
        scratch(scratch),
        env{query, sg.graph(shard), policy, sink, nullptr, this} {}

  bool divert(std::uint32_t level, const Bindings& bound) override {
    if (stitch[current->plan_idx][level] == 0) return false;
    const BackwardConstraint& c0 =
        plans[current->plan_idx].levels[level].constraints[0];
    const std::uint32_t target = part.owner(bound[c0.order_pos]);
    if (target == shard) return false;
    outbox[target].push_back(
        Partial{current->plan_idx, current->sign, level, bound});
    ++scratch.migrated;
    return true;
  }

  void expand(const Partial& p) {
    current = &p;
    enumerate(env, plans[p.plan_idx], p.level, p.bound, p.sign, scratch.dfs);
  }

  // Seeds the partial (xa, xb) of plan `plan_idx` and expands it.
  void expand_seed(std::uint32_t plan_idx, int sign, VertexId xa,
                   VertexId xb) {
    Partial p;
    p.plan_idx = plan_idx;
    p.sign = static_cast<std::int8_t>(sign);
    p.bound[0] = xa;
    p.bound[1] = xb;
    ++scratch.dfs.stats.seeds;
    expand(p);
  }

  std::uint32_t shard;
  const std::vector<MatchPlan>& plans;
  const std::vector<std::vector<std::uint8_t>>& stitch;
  const GraphPartitioner& part;
  std::vector<std::vector<Partial>>& outbox;  // [target shard]
  ShardScratch& scratch;
  EnumerationEnv env;
  const Partial* current = nullptr;  // the partial being expanded
};

// Everything one sharded launch owns, one entry per shard.
struct ShardLaunch {
  ShardLaunch(EngineKind kind, const ShardedGraph& sg,
              const gpusim::SimParams& sim, const QueryGraph& query,
              const std::vector<MatchPlan>& plans,
              const std::vector<std::vector<std::uint8_t>>& stitch,
              const MatchSink* sink, detail::MemoCapacity memo)
      : sink_lock(sink),
        scratch(make_scratch(sg.num_shards(), memo)),
        outboxes(sg.num_shards(),
                 std::vector<std::vector<Partial>>(sg.num_shards())) {
    const std::size_t shards = sg.num_shards();
    for (std::size_t s = 0; s < shards; ++s) {
      policies.push_back(std::make_unique<RoutedShardPolicy>(kind, sg, sim));
    }
    for (std::size_t s = 0; s < shards; ++s) {
      tasks.push_back(std::make_unique<ShardTask>(
          static_cast<std::uint32_t>(s), query, plans, stitch, sg,
          *policies[s], sink_lock, outboxes[s], scratch[s]));
    }
  }

  std::size_t size() const { return tasks.size(); }

  // Drains migrated partials in barrier-separated supersteps until no
  // outbox has work. Returns the number of rounds run beyond the first.
  std::uint32_t run_supersteps(ThreadPool& pool) {
    const std::size_t shards = size();
    std::uint32_t extra_rounds = 0;
    std::vector<std::vector<Partial>> inbox(shards);
    for (;;) {
      bool any = false;
      for (std::size_t s = 0; s < shards; ++s) {
        inbox[s].clear();
        for (std::size_t src = 0; src < shards; ++src) {
          auto& box = outboxes[src][s];
          inbox[s].insert(inbox[s].end(), box.begin(), box.end());
          box.clear();
        }
        if (!inbox[s].empty()) any = true;
      }
      if (!any) break;
      ++extra_rounds;
      pool.parallel_for(shards, 1,
                        [&](std::size_t begin, std::size_t end, std::size_t) {
                          for (std::size_t s = begin; s < end; ++s) {
                            for (const Partial& p : inbox[s]) {
                              tasks[s]->expand(p);
                            }
                          }
                        });
    }
    return extra_rounds;
  }

  MatchStats stats() const {
    MatchStats out;
    for (const ShardScratch& s : scratch) out += s.dfs.stats;
    return out;
  }

  SinkLock sink_lock;
  std::vector<ShardScratch> scratch;
  std::vector<std::unique_ptr<RoutedShardPolicy>> policies;
  std::vector<std::vector<std::vector<Partial>>> outboxes;  // [src][target]
  std::vector<std::unique_ptr<ShardTask>> tasks;
};

// Round 0: the single-device work-item space (plan x record x orientation),
// with each item claimed by owner(xa) — exactly-once enumeration globally.
void process_seed_items(ShardTask& task, const EdgeBatch& batch) {
  const QueryGraph& query = task.env.query;
  const std::vector<MatchPlan>& plans = task.plans;
  const DynamicGraph& graph = task.env.labels;
  const std::size_t per_plan = batch.updates.size() * 2;
  const std::size_t total = plans.size() * per_plan;
  for (std::size_t item = 0; item < total; ++item) {
    const std::size_t plan_idx = item / per_plan;
    const std::size_t rest = item % per_plan;
    const EdgeUpdate& e = batch.updates[rest / 2];
    const bool swap = (rest % 2) != 0;
    const VertexId xa = swap ? e.v : e.u;
    const VertexId xb = swap ? e.u : e.v;
    if (task.part.owner(xa) != task.shard) continue;
    ++task.scratch.routed_items;

    const MatchPlan& plan = plans[plan_idx];
    if (!query.label_matches(plan.seed_a, graph.label(xa))) continue;
    if (!query.label_matches(plan.seed_b, graph.label(xb))) continue;
    task.expand_seed(static_cast<std::uint32_t>(plan_idx), e.sign, xa, xb);
  }
}

}  // namespace

ShardedMatcher::ShardedMatcher(QueryGraph query, std::size_t num_shards,
                               std::size_t grain, detail::MemoCapacity memo)
    : query_(std::move(query)),
      static_plan_(make_static_plan(query_)),
      delta_plans_(make_delta_plans(query_)),
      decomposition_(make_branch_decomposition(query_)),
      num_shards_(num_shards),
      grain_(grain),
      memo_(memo) {
  delta_stitch_.reserve(delta_plans_.size());
  for (const MatchPlan& p : delta_plans_) {
    delta_stitch_.push_back(stitch_levels(decomposition_, p));
  }
  static_stitch_ = stitch_levels(decomposition_, static_plan_);
}

MatchStats ShardedMatcher::match_batch(
    EngineKind effective_kind, const ShardedGraph& sg, const EdgeBatch& batch,
    ThreadPool& pool, const MatchSink* sink, const gpusim::SimParams& sim,
    FaultInjector* faults, double watchdog_timeout_ms,
    std::vector<gpusim::Traffic>* per_shard_traffic, StitchStats* stitch) {
  const std::size_t shards = num_shards_;

  // Kernel fault sites, probed once per shard launch BEFORE any item runs
  // (mirroring SimtExecutor's contract, so no partial kernel effects
  // escape). A hung shard kernel surfaces directly as the watchdog's
  // cancellation.
  if (faults != nullptr && effective_kind != EngineKind::kCpu) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (faults->fires(fault_site::kKernelLaunch)) {
        throw gpusim::KernelLaunchError();
      }
      if (faults->fires(fault_site::kKernelHang)) {
        throw gpusim::KernelTimeoutError(watchdog_timeout_ms);
      }
    }
  }

  ShardLaunch launch(effective_kind, sg, sim, query_, delta_plans_,
                     delta_stitch_, sink, memo_);
  pool.parallel_for(launch.size(), 1,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t s = begin; s < end; ++s) {
                        process_seed_items(*launch.tasks[s], batch);
                      }
                    });

  Timer stitch_timer;
  const std::uint32_t extra = launch.run_supersteps(pool);

  std::uint64_t routed = 0;
  std::uint64_t migrated = 0;
  for (const ShardScratch& s : launch.scratch) {
    routed += s.routed_items;
    migrated += s.migrated;
  }
  if (per_shard_traffic != nullptr) {
    per_shard_traffic->clear();
    for (std::size_t s = 0; s < launch.size(); ++s) {
      per_shard_traffic->push_back(
          launch.scratch[s].charged_traffic(*launch.policies[s]));
    }
  }
  if (stitch != nullptr) {
    stitch->routed_items = routed;
    stitch->stitch_candidates = migrated;
    stitch->supersteps = 1 + extra;
    stitch->stitch_seconds = extra > 0 ? stitch_timer.seconds() : 0.0;
  }
  return launch.stats();
}

MatchStats ShardedMatcher::match_full(EngineKind effective_kind,
                                      const ShardedGraph& sg,
                                      ThreadPool& pool,
                                      const gcsm::gpusim::SimParams& sim,
                                      const MatchSink* sink) {
  const std::vector<MatchPlan> plans{static_plan_};
  const std::vector<std::vector<std::uint8_t>> stitch{static_stitch_};
  ShardLaunch launch(effective_kind, sg, sim, query_, plans, stitch, sink,
                     memo_);

  const MatchPlan& plan = static_plan_;
  const auto n = static_cast<std::size_t>(sg.num_vertices());
  pool.parallel_for(
      launch.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          ShardTask& task = *launch.tasks[s];
          ShardScratch& sc = task.scratch;
          const DynamicGraph& graph = task.env.labels;
          for (std::size_t item = 0; item < n; ++item) {
            const auto xa = static_cast<VertexId>(item);
            if (task.part.owner(xa) != task.shard) continue;
            if (!query_.label_matches(plan.seed_a, graph.label(xa))) continue;
            // Scan xa's live neighbors as seed targets (both orientations
            // are covered because every ordered pair is its own item).
            const NeighborView view =
                task.env.policy.fetch(xa, ViewMode::kNew, sc.dfs.traffic);
            sc.seeds.clear();
            materialize_view(view, sc.seeds);
            sc.dfs.ops += sc.seeds.size();
            for (const VertexId xb : sc.seeds) {
              if (!query_.label_matches(plan.seed_b, graph.label(xb))) {
                continue;
              }
              task.expand_seed(0, +1, xa, xb);
            }
          }
        }
      });
  launch.run_supersteps(pool);
  return launch.stats();
}

}  // namespace gcsm::shard
