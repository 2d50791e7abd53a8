// The shared WCOJ enumeration engine.
//
// One engine implements the nested loops of Fig. 2 for both the CPU baseline
// and every (simulated) GPU variant; an AccessPolicy decides where neighbor
// lists come from and what traffic they cost, exactly mirroring the paper's
// fairness setup ("all the GPU versions use the same GPU kernel adapted from
// STMatch").
//
// Each seed edge runs the enumeration core (core/enumerate.hpp): the
// explicit-stack DFS whose levels iterate label-filtered candidate sets from
// the candidate kernel, with injectivity and the optional CandidateFilter
// checked at bind time and a per-worker candidate-set memo scoped to the
// seed. Work items (seed edges) are distributed across workers by work
// stealing. Each worker accumulates its traffic and charged ops privately;
// they reach the caller's TrafficCounters once, when the launch ends.
#pragma once

#include <cstdint>
#include <vector>

#include "core/access_policy.hpp"
#include "core/enumerate.hpp"
#include "gpusim/simt_executor.hpp"
#include "graph/dynamic_graph.hpp"
#include "query/plan.hpp"
#include "query/query_graph.hpp"

namespace gcsm {

class MatchEngine {
 public:
  // Plans may come from make_delta_plans / make_static_plan or be custom
  // (e.g. candidate-size-ordered for the RF-like baseline). `memo` sizes the
  // per-worker candidate-set memo; only tests change it.
  MatchEngine(QueryGraph query, gpusim::SimtExecutor& executor,
              std::size_t grain = 2, detail::MemoCapacity memo = {});

  const QueryGraph& query() const { return query_; }
  const std::vector<MatchPlan>& delta_plans() const { return delta_plans_; }

  // Incremental matching: runs every delta plan over the batch. The returned
  // signed embedding count equals the embedding-count difference between the
  // post- and pre-batch graphs (the telescoping IVM identity).
  MatchStats match_batch(const DynamicGraph& graph, const EdgeBatch& batch,
                         AccessPolicy& policy,
                         gpusim::TrafficCounters& counters,
                         const MatchSink* sink = nullptr,
                         const CandidateFilter* filter = nullptr);

  // As above but with externally supplied plans (must be delta plans of
  // this query). When `per_block_busy_seconds` is non-null it receives one
  // entry per simulated block with the wall time that block spent on seed
  // work — the load-balance metric for the scheduling ablation.
  MatchStats match_batch_with_plans(const std::vector<MatchPlan>& plans,
                                    const DynamicGraph& graph,
                                    const EdgeBatch& batch,
                                    AccessPolicy& policy,
                                    gpusim::TrafficCounters& counters,
                                    const MatchSink* sink = nullptr,
                                    const CandidateFilter* filter = nullptr,
                                    std::vector<double>*
                                        per_block_busy_seconds = nullptr);

  // Full static matching (Fig. 2a) on the graph's NEW view.
  MatchStats match_full(const DynamicGraph& graph, AccessPolicy& policy,
                        gpusim::TrafficCounters& counters,
                        const MatchSink* sink = nullptr);

 private:
  QueryGraph query_;
  MatchPlan static_plan_;
  std::vector<MatchPlan> delta_plans_;
  gpusim::SimtExecutor& executor_;
  std::size_t grain_;
  detail::MemoCapacity memo_;
};

}  // namespace gcsm
