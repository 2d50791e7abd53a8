#include "shard/sharded_matcher.hpp"

#include <memory>
#include <mutex>
#include <span>

#include "core/access_policy.hpp"
#include "core/intersect.hpp"
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
      switch (kind) {
        case EngineKind::kGcsm:
        case EngineKind::kNaiveDegree:
        case EngineKind::kVsgm:
          policies_.push_back(std::make_unique<CachedPolicy>(
              sg.graph(s), sg.cache(s), sim));
          break;
        case EngineKind::kZeroCopy:
          policies_.push_back(
              std::make_unique<ZeroCopyPolicy>(sg.graph(s), sim));
          break;
        case EngineKind::kUnifiedMemory:
          policies_.push_back(
              std::make_unique<UnifiedMemoryPolicy>(sg.graph(s), sim));
          break;
        case EngineKind::kCpu:
          policies_.push_back(std::make_unique<HostPolicy>(sg.graph(s)));
          break;
      }
    }
  }

  NeighborView fetch(VertexId v, ViewMode mode,
                     gpusim::TrafficCounters& counters) override {
    return policies_[sg_.owner(v)]->fetch(v, mode, counters);
  }
  bool on_device() const override { return on_device_; }

 private:
  const ShardedGraph& sg_;
  bool on_device_;
  std::vector<std::unique_ptr<AccessPolicy>> policies_;
};

// One per shard task, cache-line aligned so that concurrently running shard
// tasks never share a line. The shard's traffic and charged ops accumulate
// here without contention.
struct alignas(64) ShardScratch {
  std::array<std::vector<VertexId>, kMaxQueryVertices> cand;
  std::array<std::uint32_t, kMaxQueryVertices> cursor{};
  KernelScratch kernel;
  std::vector<VertexId> seeds;  // match_full's seed targets
  gpusim::TrafficCounters traffic;
  std::uint64_t ops = 0;  // charged intersection/materialization ops
  MatchStats stats;
  std::uint64_t routed_items = 0;
  std::uint64_t migrated = 0;

  // Charges the accumulated ops the way core/cpu_engine.cpp does: SIMT
  // compute for device policies, host ops for the CPU fallback.
  gpusim::Traffic charged_traffic(const AccessPolicy& policy) {
    if (policy.on_device()) {
      traffic.add_compute(ops);
    } else {
      traffic.add_host(ops, 0);
    }
    ops = 0;
    return traffic.snapshot();
  }
};

// The single-device candidate kernel, so the candidate sets and charged op
// counts match the single-device engine.
bool compute_level(const MatchPlan& plan, std::uint32_t level,
                   const std::array<VertexId, kMaxQueryVertices>& bound,
                   AccessPolicy& policy, ShardScratch& scratch) {
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

// A partial match in flight between shards: resume the DFS at `level`
// (whose candidates have not been computed yet) with bound[0..level+2)
// already fixed.
struct Partial {
  std::uint32_t plan_idx = 0;
  std::int8_t sign = +1;
  std::uint32_t level = 0;
  std::array<VertexId, kMaxQueryVertices> bound{};
};

struct TaskCtx {
  std::uint32_t shard = 0;
  const QueryGraph* query = nullptr;
  const std::vector<MatchPlan>* plans = nullptr;
  const std::vector<std::vector<std::uint8_t>>* stitch = nullptr;
  const DynamicGraph* graph = nullptr;  // this shard's (labels are global)
  const GraphPartitioner* part = nullptr;
  AccessPolicy* policy = nullptr;
  ShardScratch* scratch = nullptr;
  SinkLock* sink = nullptr;
  std::vector<std::vector<Partial>>* outbox = nullptr;  // [target shard]
};

// The explicit-stack DFS of core/cpu_engine.cpp's enumerate_seed, extended
// with one hook: before descending into a BRANCH level whose anchor vertex
// is owned elsewhere, the partial is shipped to that owner instead.
void expand_partial(TaskCtx& ctx, const Partial& p) {
  const MatchPlan& plan = (*ctx.plans)[p.plan_idx];
  const std::vector<std::uint8_t>& stitch = (*ctx.stitch)[p.plan_idx];
  const std::uint32_t num_levels = plan.num_levels();
  std::array<VertexId, kMaxQueryVertices> bound = p.bound;
  ShardScratch& scratch = *ctx.scratch;
  const int sign = p.sign;

  auto emit = [&](std::uint32_t depth) {
    scratch.stats.signed_embeddings += sign;
    if (sign > 0) {
      ++scratch.stats.positive;
    } else {
      ++scratch.stats.negative;
    }
    ctx.sink->emit(plan, std::span<const VertexId>(bound.data(), depth),
                   sign);
  };

  if (num_levels == 0) {
    emit(2);
    return;
  }

  // Entry-level stitch: a freshly seeded partial may immediately belong to
  // another shard. Inbox partials never re-migrate (they were routed here).
  if (stitch[p.level] != 0) {
    const auto& c0 = plan.levels[p.level].constraints[0];
    const std::uint32_t target = ctx.part->owner(bound[c0.order_pos]);
    if (target != ctx.shard) {
      (*ctx.outbox)[target].push_back(p);
      ++scratch.migrated;
      return;
    }
  }

  const auto base = static_cast<std::int32_t>(p.level);
  std::int32_t level = base;
  if (!compute_level(plan, p.level, bound, *ctx.policy, scratch)) {
    return;
  }
  scratch.cursor[level] = 0;

  while (level >= base) {
    auto& cand = scratch.cand[level];
    auto& cur = scratch.cursor[level];
    if (cur >= cand.size()) {
      --level;
      continue;
    }
    const VertexId v = cand[cur++];
    const PlanLevel& pl = plan.levels[level];

    if (!ctx.query->label_matches(pl.query_vertex, ctx.graph->label(v))) {
      continue;
    }
    bool duplicate = false;
    const std::uint32_t bound_count = 2 + static_cast<std::uint32_t>(level);
    for (std::uint32_t i = 0; i < bound_count; ++i) {
      if (bound[i] == v) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;

    bound[bound_count] = v;
    if (static_cast<std::uint32_t>(level) + 1 == num_levels) {
      emit(bound_count + 1);
      continue;
    }
    const std::uint32_t next = static_cast<std::uint32_t>(level) + 1;
    if (stitch[next] != 0) {
      const auto& c0 = plan.levels[next].constraints[0];
      const std::uint32_t target = ctx.part->owner(bound[c0.order_pos]);
      if (target != ctx.shard) {
        Partial np;
        np.plan_idx = p.plan_idx;
        np.sign = p.sign;
        np.level = next;
        np.bound = bound;
        (*ctx.outbox)[target].push_back(np);
        ++scratch.migrated;
        continue;
      }
    }
    ++level;
    if (!compute_level(plan, static_cast<std::uint32_t>(level), bound,
                       *ctx.policy, scratch)) {
      --level;
      continue;
    }
    scratch.cursor[level] = 0;
  }
}

// Round 0: the single-device work-item space (plan x record x orientation),
// with each item claimed by owner(xa) — exactly-once enumeration globally.
void process_seed_items(TaskCtx& ctx, const EdgeBatch& batch) {
  const std::vector<MatchPlan>& plans = *ctx.plans;
  const std::size_t per_plan = batch.updates.size() * 2;
  const std::size_t total = plans.size() * per_plan;
  for (std::size_t item = 0; item < total; ++item) {
    const std::size_t plan_idx = item / per_plan;
    const std::size_t rest = item % per_plan;
    const EdgeUpdate& e = batch.updates[rest / 2];
    const bool swap = (rest % 2) != 0;
    const VertexId xa = swap ? e.v : e.u;
    const VertexId xb = swap ? e.u : e.v;
    if (ctx.part->owner(xa) != ctx.shard) continue;
    ++ctx.scratch->routed_items;

    const MatchPlan& plan = plans[plan_idx];
    if (!ctx.query->label_matches(plan.seed_a, ctx.graph->label(xa))) {
      continue;
    }
    if (!ctx.query->label_matches(plan.seed_b, ctx.graph->label(xb))) {
      continue;
    }
    Partial p;
    p.plan_idx = static_cast<std::uint32_t>(plan_idx);
    p.sign = e.sign;
    p.level = 0;
    p.bound[0] = xa;
    p.bound[1] = xb;
    ++ctx.scratch->stats.seeds;
    expand_partial(ctx, p);
  }
}

// Drains migrated partials in barrier-separated supersteps until no outbox
// has work. Returns the number of rounds run beyond the first.
std::uint32_t run_supersteps(
    ThreadPool& pool, std::size_t num_shards, std::vector<TaskCtx>& ctxs,
    std::vector<std::vector<std::vector<Partial>>>& outboxes) {
  std::uint32_t extra_rounds = 0;
  std::vector<std::vector<Partial>> inbox(num_shards);
  for (;;) {
    bool any = false;
    for (std::size_t s = 0; s < num_shards; ++s) {
      inbox[s].clear();
      for (std::size_t src = 0; src < num_shards; ++src) {
        auto& box = outboxes[src][s];
        inbox[s].insert(inbox[s].end(), box.begin(), box.end());
        box.clear();
      }
      if (!inbox[s].empty()) any = true;
    }
    if (!any) break;
    ++extra_rounds;
    pool.parallel_for(num_shards, 1,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        for (std::size_t s = begin; s < end; ++s) {
                          for (const Partial& p : inbox[s]) {
                            expand_partial(ctxs[s], p);
                          }
                        }
                      });
  }
  return extra_rounds;
}

}  // namespace

ShardedMatcher::ShardedMatcher(QueryGraph query, std::size_t num_shards,
                               std::size_t grain)
    : query_(std::move(query)),
      static_plan_(make_static_plan(query_)),
      delta_plans_(make_delta_plans(query_)),
      decomposition_(make_branch_decomposition(query_)),
      num_shards_(num_shards),
      grain_(grain) {
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

  std::vector<ShardScratch> scratch(shards);
  std::vector<std::unique_ptr<RoutedShardPolicy>> policies;
  policies.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    policies.push_back(
        std::make_unique<RoutedShardPolicy>(effective_kind, sg, sim));
  }
  SinkLock sink_lock(sink);
  std::vector<std::vector<std::vector<Partial>>> outboxes(
      shards, std::vector<std::vector<Partial>>(shards));

  std::vector<TaskCtx> ctxs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ctxs[s].shard = static_cast<std::uint32_t>(s);
    ctxs[s].query = &query_;
    ctxs[s].plans = &delta_plans_;
    ctxs[s].stitch = &delta_stitch_;
    ctxs[s].graph = &sg.graph(s);
    ctxs[s].part = &sg.partitioner();
    ctxs[s].policy = policies[s].get();
    ctxs[s].scratch = &scratch[s];
    ctxs[s].sink = &sink_lock;
    ctxs[s].outbox = &outboxes[s];
  }

  pool.parallel_for(shards, 1,
                    [&](std::size_t begin, std::size_t end, std::size_t) {
                      for (std::size_t s = begin; s < end; ++s) {
                        process_seed_items(ctxs[s], batch);
                      }
                    });

  Timer stitch_timer;
  const std::uint32_t extra = run_supersteps(pool, shards, ctxs, outboxes);

  MatchStats stats;
  std::uint64_t routed = 0;
  std::uint64_t migrated = 0;
  for (const ShardScratch& s : scratch) {
    stats += s.stats;
    routed += s.routed_items;
    migrated += s.migrated;
  }
  if (per_shard_traffic != nullptr) {
    per_shard_traffic->clear();
    for (std::size_t s = 0; s < shards; ++s) {
      per_shard_traffic->push_back(
          scratch[s].charged_traffic(*policies[s]));
    }
  }
  if (stitch != nullptr) {
    stitch->routed_items = routed;
    stitch->stitch_candidates = migrated;
    stitch->supersteps = 1 + extra;
    stitch->stitch_seconds = extra > 0 ? stitch_timer.seconds() : 0.0;
  }
  return stats;
}

MatchStats ShardedMatcher::match_full(EngineKind effective_kind,
                                      const ShardedGraph& sg,
                                      ThreadPool& pool,
                                      const gcsm::gpusim::SimParams& sim,
                                      const MatchSink* sink) {
  const std::size_t shards = num_shards_;
  const std::vector<MatchPlan> plans{static_plan_};
  const std::vector<std::vector<std::uint8_t>> stitch{static_stitch_};

  std::vector<ShardScratch> scratch(shards);
  std::vector<std::unique_ptr<RoutedShardPolicy>> policies;
  policies.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    policies.push_back(
        std::make_unique<RoutedShardPolicy>(effective_kind, sg, sim));
  }
  SinkLock sink_lock(sink);
  std::vector<std::vector<std::vector<Partial>>> outboxes(
      shards, std::vector<std::vector<Partial>>(shards));

  std::vector<TaskCtx> ctxs(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ctxs[s].shard = static_cast<std::uint32_t>(s);
    ctxs[s].query = &query_;
    ctxs[s].plans = &plans;
    ctxs[s].stitch = &stitch;
    ctxs[s].graph = &sg.graph(s);
    ctxs[s].part = &sg.partitioner();
    ctxs[s].policy = policies[s].get();
    ctxs[s].scratch = &scratch[s];
    ctxs[s].sink = &sink_lock;
    ctxs[s].outbox = &outboxes[s];
  }

  const MatchPlan& plan = static_plan_;
  const auto n = static_cast<std::size_t>(sg.num_vertices());
  pool.parallel_for(
      shards, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          TaskCtx& ctx = ctxs[s];
          for (std::size_t item = 0; item < n; ++item) {
            const auto xa = static_cast<VertexId>(item);
            if (ctx.part->owner(xa) != ctx.shard) continue;
            if (!query_.label_matches(plan.seed_a, ctx.graph->label(xa))) {
              continue;
            }
            // Scan xa's live neighbors as seed targets (both orientations
            // are covered because every ordered pair is its own item).
            ShardScratch& sc = *ctx.scratch;
            const NeighborView view =
                ctx.policy->fetch(xa, ViewMode::kNew, sc.traffic);
            sc.seeds.clear();
            materialize_view(view, sc.seeds);
            sc.ops += sc.seeds.size();
            for (const VertexId xb : sc.seeds) {
              if (!query_.label_matches(plan.seed_b, ctx.graph->label(xb))) {
                continue;
              }
              Partial p;
              p.plan_idx = 0;
              p.sign = +1;
              p.level = 0;
              p.bound[0] = xa;
              p.bound[1] = xb;
              ++sc.stats.seeds;
              expand_partial(ctx, p);
            }
          }
        }
      });
  run_supersteps(pool, shards, ctxs, outboxes);

  MatchStats stats;
  for (const ShardScratch& s : scratch) stats += s.stats;
  return stats;
}

}  // namespace gcsm::shard
