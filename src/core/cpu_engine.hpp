// The shared WCOJ enumeration engine.
//
// One engine implements the nested loops of Fig. 2 for both the CPU baseline
// and every (simulated) GPU variant; an AccessPolicy decides where neighbor
// lists come from and what traffic they cost, exactly mirroring the paper's
// fairness setup ("all the GPU versions use the same GPU kernel adapted from
// STMatch").
//
// Mechanics per seed edge, following STMatch: an explicit per-worker stack
// of candidate buffers (no recursion), one level per pattern vertex beyond
// the seed pair; a level's candidates come from the candidate kernel
// (core/intersect.hpp), which intersects the constraint views where they
// lie and writes only the result; injectivity and label checks filter at
// bind time. Work items (seed edges) are distributed across workers by work
// stealing. Each worker accumulates its traffic and charged ops privately;
// they reach the caller's TrafficCounters once, when the launch ends.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/access_policy.hpp"
#include "gpusim/simt_executor.hpp"
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

class MatchEngine {
 public:
  // Plans may come from make_delta_plans / make_static_plan or be custom
  // (e.g. candidate-size-ordered for the RF-like baseline).
  MatchEngine(QueryGraph query, gpusim::SimtExecutor& executor,
              std::size_t grain = 2);

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
};

}  // namespace gcsm
