#include "core/pipeline.hpp"

#include "core/gpu_engine.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace gcsm {

Pipeline::Pipeline(const CsrGraph& initial, QueryGraph query,
                   PipelineOptions options)
    : options_(options),
      graph_(initial),
      device_(options.sim),
      executor_(options.workers, options.schedule),
      engine_(std::move(query), executor_, options.grain),
      estimator_(engine_.query(), options.estimator),
      policy_(make_access_policy(
          options_.kind, graph_, cache_,
          um_resident_set(options_.sim, options_.cache_budget_bytes))),
      rng_(options.seed),
      faults_(options.fault_injector),
      commit_(options.durability, options.fault_injector),
      metrics_(options.metric_prefix),
      budget_(options_.recovery) {
  device_.set_fault_injector(faults_);
  executor_.set_fault_injector(faults_);
  executor_.set_watchdog_timeout_ms(options_.recovery.watchdog_timeout_ms);
  graph_.set_fault_injector(faults_);
  commit_.recover(
      {.graph = &graph_,
       .validate = options_.check_invariants,
       .batch = [this](const EdgeBatch& batch) { process_batch(batch); }});
}

std::uint64_t Pipeline::effective_cache_budget() const {
  return budget_.effective(options_.cache_budget_bytes);
}

void Pipeline::run_attempt(const EdgeBatch& batch, const MatchSink* sink,
                           bool use_cpu, BatchReport& report) {
  const EngineKind kind = use_cpu ? EngineKind::kCpu : options_.kind;
  // Kernel fault sites model device failures: they stay armed for device
  // attempts and are disarmed on the CPU path (which shares the executor as
  // a plain thread pool), so the fallback is genuinely more reliable. The
  // graph.apply site stays armed either way.
  executor_.set_fault_injector(use_cpu ? nullptr : faults_);

  gpusim::TrafficCounters& counters = device_.counters();
  counters.reset();
  report.clear_attempt_fields();
  const gpusim::SimParams& sim = options_.sim;

  // Step 1: dynamic graph maintenance on the CPU.
  phase_update(graph_, batch, options_.check_invariants, metrics_, report);

  // Step 2: frequency estimation (GCSM; degree / k-hop for the baselines).
  const std::vector<VertexId> cache_order =
      phase_estimate(kind, estimator_, graph_, batch, rng_,
                     engine_.query().diameter(), sim, metrics_, report);

  // Step 3: pack the selected lists as DCSR and DMA to the device.
  phase_pack(kind, cache_, graph_, cache_order, effective_cache_budget(),
             options_.cache_budget_bytes, device_, counters,
             options_.check_invariants, sim, metrics_, report);

  // Step 4: incremental matching.
  HostPolicy host(graph_);
  phase_match(kind, engine_, graph_, batch, use_cpu ? host : *policy_,
              counters, sink, sim, metrics_, report);

  // Step 5: reorganize the touched lists on the CPU.
  phase_reorg(graph_, options_.check_invariants, sim, metrics_, report);

  report.traffic = counters.snapshot();
}

BatchReport Pipeline::process_batch(const EdgeBatch& batch,
                                    const MatchSink* sink) {
  const trace::Span batch_span(metrics_.span_batch());
  BatchReport report;
  const EdgeBatch& use =
      commit_.open(batch, options_.recovery.sanitize_batches,
                   graph_sanitizer(graph_), report);

  // The transaction: everything the batch can touch, restorable even from a
  // half-applied state. Escalation re-runs the batch on the CPU engine.
  const DynamicGraph::Snapshot snap = graph_.snapshot_for(use);
  auto rollback = [&] {
    graph_.restore(snap);
    cache_.clear();
    if (options_.check_invariants) graph_.validate();
  };
  const Transaction txn{
      [&](bool use_cpu) { run_attempt(use, sink, use_cpu, report); },
      rollback,
      [&] { return budget_.shrink(options_.cache_budget_bytes, metrics_); },
      options_.kind == EngineKind::kVsgm};
  const bool on_cpu = run_transaction(
      options_.recovery, options_.kind == EngineKind::kCpu, txn, report);
  report.cpu_fallback = on_cpu && options_.kind != EngineKind::kCpu;

  commit_.commit({.budgets = {&budget_, 1},
                  .budget_base = options_.cache_budget_bytes,
                  .escalated = on_cpu,
                  .delta = report.stats,
                  .rollback = rollback},
                 report);
  metrics_.record_batch(report);
  commit_.snapshot(graph_);
  report.metrics = metrics::Registry::global().snapshot();
  return report;
}

std::uint64_t Pipeline::count_current_embeddings() {
  // A diagnostic pass, not a batch: fault injection pauses so it cannot fail
  // or consume the injector's hit sequence.
  FaultSuspendGuard suspend(faults_);
  gpusim::TrafficCounters scratch;
  HostPolicy policy(graph_);
  const MatchStats stats = engine_.match_full(graph_, policy, scratch);
  return stats.positive;
}

}  // namespace gcsm
