// Fault-injection matrix for the recovery ladder (docs/ROBUSTNESS.md).
//
// The contract under test: with any fault site armed, the pipeline either
// completes the batch with results BIT-IDENTICAL to a fault-free run, or (when
// recovery is exhausted or disabled) rethrows with the graph rolled back to
// its pre-batch state and every invariant intact. Faults may cost retries,
// cache-budget degradation, or a CPU re-run — never correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dcsr_cache.hpp"
#include "core/gpu_engine.hpp"
#include "core/pipeline.hpp"
#include "core/reference_matcher.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simt_executor.hpp"
#include "graph/generators.hpp"
#include "graph/update_stream.hpp"
#include "query/patterns.hpp"
#include "server/multi_query_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace gcsm {
namespace {

struct StreamFixture {
  explicit StreamFixture(int seed, VertexId n = 400, std::size_t batch = 64,
                         std::size_t pool = 256) {
    Rng rng(seed);
    base = generate_barabasi_albert(n, 4, 2, rng);
    UpdateStreamOptions opt;
    opt.pool_edge_count = pool;
    opt.batch_size = batch;
    opt.seed = seed + 1;
    stream = make_update_stream(base, opt);
  }
  CsrGraph base;
  UpdateStream stream;
};

PipelineOptions fault_options(EngineKind kind) {
  PipelineOptions opt;
  opt.kind = kind;
  opt.workers = 2;
  opt.cache_budget_bytes = 4 << 20;
  opt.estimator.num_walks = 2048;
  opt.sim.device_memory_bytes = 64ull << 20;
  opt.recovery.backoff_initial_ms = 0.0;  // no sleeping in tests
  opt.recovery.watchdog_timeout_ms = 2.0;
  return opt;
}

std::int64_t count_in(const DynamicGraph& graph, const QueryGraph& query) {
  return static_cast<std::int64_t>(
      reference_count_embeddings(graph.to_csr(), query));
}

// ---------------------------------------------------------------------------
// FaultInjector semantics.

TEST(FaultInjector, DeterministicInSeedAndCallSequence) {
  FaultInjector a(99);
  FaultInjector b(99);
  a.arm_all(0.3);
  b.arm_all(0.3);
  std::vector<bool> fa;
  std::vector<bool> fb;
  for (int i = 0; i < 200; ++i) {
    fa.push_back(a.fires(fault_site::kDeviceDma));
    fb.push_back(b.fires(fault_site::kDeviceDma));
  }
  EXPECT_EQ(fa, fb);
  EXPECT_GT(a.fired_count(), 0u);   // p=0.3 over 200 hits fires sometimes
  EXPECT_LT(a.fired_count(), 200u);  // ... but not always
  EXPECT_EQ(a.hits(fault_site::kDeviceDma), 200u);
}

TEST(FaultInjector, NthHitFiresExactlyOnThatHit) {
  FaultInjector inj(1);
  inj.arm(fault_site::kKernelLaunch, {0.0, 3});
  std::vector<std::uint64_t> fired_at;
  for (std::uint64_t hit = 1; hit <= 10; ++hit) {
    if (inj.fires(fault_site::kKernelLaunch)) fired_at.push_back(hit);
  }
  EXPECT_EQ(fired_at, std::vector<std::uint64_t>{3});
  ASSERT_EQ(inj.observations().size(), 1u);
  EXPECT_EQ(inj.observations()[0].site, fault_site::kKernelLaunch);
  EXPECT_EQ(inj.observations()[0].hit, 3u);
}

TEST(FaultInjector, SuspendGuardSilencesAndRestores) {
  FaultInjector inj(2);
  inj.arm(fault_site::kDeviceAlloc, {1.0, 0});
  {
    FaultSuspendGuard guard(&inj);
    EXPECT_FALSE(inj.fires(fault_site::kDeviceAlloc));
    EXPECT_FALSE(inj.enabled());
  }
  EXPECT_TRUE(inj.enabled());
  EXPECT_TRUE(inj.fires(fault_site::kDeviceAlloc));
  FaultSuspendGuard null_guard(nullptr);  // must tolerate a disarmed stack
}

// ---------------------------------------------------------------------------
// Transactional snapshot / restore.

TEST(Snapshot, RestoreRoundTripsEvenAfterReorganize) {
  StreamFixture f(41);
  DynamicGraph g(f.stream.initial);
  const std::vector<Edge> before = g.to_csr().edge_list();

  const EdgeBatch& batch = f.stream.batches[0];
  const DynamicGraph::Snapshot snap = g.snapshot_for(batch);
  g.apply_batch(batch);
  g.reorganize();
  g.validate();
  EXPECT_NE(g.to_csr().edge_list(), before);

  g.restore(snap);
  g.validate();
  EXPECT_EQ(g.to_csr().edge_list(), before);
  EXPECT_FALSE(g.has_pending_batch());
}

TEST(Snapshot, RestoreRecoversFromHalfAppliedBatch) {
  StreamFixture f(42);
  DynamicGraph g(f.stream.initial);
  const std::vector<Edge> before = g.to_csr().edge_list();

  FaultInjector inj(5);
  inj.arm(fault_site::kGraphApply, {1.0, 0});
  g.set_fault_injector(&inj);

  const EdgeBatch& batch = f.stream.batches[0];
  const DynamicGraph::Snapshot snap = g.snapshot_for(batch);
  try {
    g.apply_batch(batch);
    FAIL() << "armed graph.apply site did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kGraphApply);
    EXPECT_TRUE(e.transient());
  }

  // The batch stopped between the two directed appends of one edge; only
  // restore() can bring the store back to a validating state.
  g.restore(snap);
  g.validate();
  EXPECT_EQ(g.to_csr().edge_list(), before);

  inj.set_enabled(false);
  g.apply_batch(batch);
  g.reorganize();
  g.validate();
}

// ---------------------------------------------------------------------------
// Batch sanitization.

TEST(Sanitize, QuarantinesEveryMalformationKind) {
  const CsrGraph base = CsrGraph::from_edges(4, {{0, 1}, {1, 2}},
                                             std::vector<Label>(4, 0));
  DynamicGraph g(base);

  EdgeBatch bad;
  bad.updates = {
      {0, 2, +1},   // valid insert
      {9, 1, +1},   // out of range
      {-2, 1, +1},  // out of range (negative)
      {1, 1, +1},   // self loop
      {0, 1, +1},   // insert of a live edge
      {2, 3, -1},   // delete of an absent edge
      {2, 0, -1},   // duplicate of the first undirected edge
      {0, 3, +1},   // valid insert
  };
  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, bad, report);

  EXPECT_EQ(clean.updates.size(), 2u);
  EXPECT_EQ(clean.updates[0], (EdgeUpdate{0, 2, +1}));
  EXPECT_EQ(clean.updates[1], (EdgeUpdate{0, 3, +1}));
  EXPECT_EQ(report.out_of_range, 2u);
  EXPECT_EQ(report.self_loops, 1u);
  EXPECT_EQ(report.insert_of_present, 1u);
  EXPECT_EQ(report.delete_of_absent, 1u);
  EXPECT_EQ(report.duplicate_in_batch, 1u);
  EXPECT_EQ(report.total(), 6u);
  EXPECT_EQ(report.quarantined.size(), 6u);

  g.apply_batch(clean);
  g.reorganize();
  g.validate();
}

TEST(Sanitize, BatchDeclaredNewVerticesExtendTheValidRange) {
  const CsrGraph base =
      CsrGraph::from_edges(3, {{0, 1}}, std::vector<Label>(3, 0));
  DynamicGraph g(base);

  EdgeBatch batch;
  batch.new_vertex_labels = {{3, 7}};
  batch.updates = {{0, 3, +1}, {0, 4, +1}};
  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, batch, report);
  EXPECT_EQ(clean.updates.size(), 1u);  // the declared vertex passes
  EXPECT_EQ(report.out_of_range, 1u);   // the undeclared one does not
}

TEST(Sanitize, WellFormedBatchPassesThroughUntouched) {
  StreamFixture f(43);
  DynamicGraph g(f.stream.initial);
  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, f.stream.batches[0], report);
  EXPECT_TRUE(report.empty());
  EXPECT_EQ(clean.updates, f.stream.batches[0].updates);
}

TEST(Sanitize, CorruptionInjectionOnlyAppends) {
  StreamFixture f(44);
  DynamicGraph g(f.stream.initial);
  EdgeBatch batch = f.stream.batches[0];
  const std::vector<EdgeUpdate> original = batch.updates;

  FaultInjector inj(6);
  inj.arm(fault_site::kBatchCorrupt, {1.0, 0});
  inject_batch_corruption(batch, &inj);
  ASSERT_GT(batch.updates.size(), original.size());

  QuarantineReport report;
  const EdgeBatch clean = sanitize_batch(g, batch, report);
  EXPECT_EQ(report.total(), batch.updates.size() - original.size());
  EXPECT_EQ(clean.updates, original);  // exactly the garbage was removed
}

// ---------------------------------------------------------------------------
// DeviceOomError coverage: DcsrCache::build under pressure.

TEST(DcsrCacheFaults, GenuineOomLeavesCacheClearedAndValid) {
  StreamFixture f(45);
  DynamicGraph g(f.stream.initial);
  gpusim::SimParams params;
  params.device_memory_bytes = 1 << 10;  // 1 KiB device: nothing fits
  gpusim::Device dev(params);
  DcsrCache cache;

  try {
    cache.build(g, select_by_degree(g), 64ull << 20, dev, dev.counters());
    FAIL() << "build fit a multi-megabyte blob into a 1 KiB device";
  } catch (const gpusim::DeviceOomError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeviceOom);
    EXPECT_FALSE(e.transient());
    EXPECT_GT(e.requested, e.available);
  }
  EXPECT_TRUE(cache.empty());
  cache.validate();  // the failed build left no half-initialized state
}

TEST(DcsrCacheFaults, InjectedAllocAndDmaFaultsAreExceptionSafe) {
  StreamFixture f(46);
  DynamicGraph g(f.stream.initial);
  gpusim::SimParams params;
  params.device_memory_bytes = 64ull << 20;
  gpusim::Device dev(params);
  FaultInjector inj(9);
  dev.set_fault_injector(&inj);
  DcsrCache cache;
  const std::vector<VertexId> order = select_by_degree(g);

  inj.arm(fault_site::kDeviceAlloc, {0.0, 1});
  EXPECT_THROW(cache.build(g, order, 1 << 20, dev, dev.counters()),
               gpusim::DeviceOomError);
  EXPECT_TRUE(cache.empty());
  cache.validate();

  inj.disarm_all();
  inj.arm(fault_site::kDeviceDma, {0.0, 1});
  EXPECT_THROW(cache.build(g, order, 1 << 20, dev, dev.counters()),
               gpusim::DeviceDmaError);
  EXPECT_TRUE(cache.empty());
  cache.validate();

  // With the injector quiet the same build succeeds outright.
  inj.disarm_all();
  cache.build(g, order, 1 << 20, dev, dev.counters());
  EXPECT_FALSE(cache.empty());
  cache.validate(&g);
}

TEST(SimtExecutorFaults, WatchdogCancelsHungKernel) {
  gpusim::SimtExecutor exec(2);
  FaultInjector inj(7);
  inj.arm(fault_site::kKernelHang, {0.0, 1});
  exec.set_fault_injector(&inj);
  exec.set_watchdog_timeout_ms(1.0);
  try {
    exec.for_each_item(4, 1, [](std::size_t, std::size_t) {});
    FAIL() << "armed kernel.hang site did not fire";
  } catch (const gpusim::KernelTimeoutError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kKernelTimeout);
    EXPECT_TRUE(e.transient());
    EXPECT_DOUBLE_EQ(e.timeout_ms, 1.0);
  }
  // The executor survives the cancelled kernel.
  exec.for_each_item(4, 1, [](std::size_t, std::size_t) {});
}

// ---------------------------------------------------------------------------
// Pipeline recovery ladder.

TEST(PipelineFaults, TransientKernelFaultRetriesTransparently) {
  StreamFixture f(47);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(11);
  inj.arm(fault_site::kKernelLaunch, {0.0, 1});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
  EXPECT_GE(got.retries, 1u);
  EXPECT_FALSE(got.cpu_fallback);  // the second device attempt succeeds
  EXPECT_GE(got.faults_observed, 1u);
  pipe.graph().validate();
}

TEST(PipelineFaults, HungKernelIsCancelledAndRetried) {
  StreamFixture f(48);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(12);
  inj.arm(fault_site::kKernelHang, {0.0, 1});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
  EXPECT_GE(got.retries, 1u);
  pipe.graph().validate();
}

TEST(PipelineFaults, OomShrinksBudgetThenHealsAfterCleanBatches) {
  StreamFixture f(49, 400, 32, 128);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(13);
  inj.arm(fault_site::kDeviceAlloc, {0.0, 1});  // first device alloc OOMs
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.heal_after_clean_batches = 2;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport r0 = pipe.process_batch(f.stream.batches[0]);
  EXPECT_GE(r0.retries, 1u);
  EXPECT_EQ(r0.degradation_level, 1u);
  EXPECT_EQ(r0.effective_cache_budget, opt.cache_budget_bytes / 2);
  EXPECT_FALSE(r0.cpu_fallback);

  const BatchReport r1 = pipe.process_batch(f.stream.batches[1]);
  EXPECT_EQ(r1.degradation_level, 1u);  // one clean batch: still degraded
  const BatchReport r2 = pipe.process_batch(f.stream.batches[2]);
  EXPECT_EQ(r2.degradation_level, 0u);  // two clean batches: healed
  EXPECT_EQ(r2.effective_cache_budget, opt.cache_budget_bytes);

  std::int64_t expected = static_cast<std::int64_t>(
      reference_count_embeddings(f.stream.initial, q));
  for (int k = 0; k < 3; ++k) {
    expected += reference.process_batch(f.stream.batches[k])
                    .stats.signed_embeddings;
  }
  EXPECT_EQ(count_in(pipe.graph(), q), expected);
}

TEST(PipelineFaults, OomAtBudgetFloorFallsBackToCpu) {
  StreamFixture f(50);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(14);
  inj.arm(fault_site::kDeviceAlloc, {1.0, 0});  // every device alloc OOMs
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.cache_budget_bytes = 64 << 10;
  opt.recovery.min_cache_budget_bytes = 64 << 10;  // already at the floor
  opt.recovery.max_attempts = 2;
  Pipeline pipe(f.stream.initial, q, opt);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_TRUE(got.cpu_fallback);
  EXPECT_GE(got.retries, 2u);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
  pipe.graph().validate();
}

TEST(PipelineFaults, ExhaustedRetriesRethrowWithGraphRolledBack) {
  StreamFixture f(51);
  const QueryGraph q = make_triangle();

  FaultInjector inj(15);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});  // every launch refused
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 2;
  opt.recovery.cpu_fallback = false;
  Pipeline pipe(f.stream.initial, q, opt);

  const std::int64_t before = count_in(pipe.graph(), q);
  EXPECT_THROW(pipe.process_batch(f.stream.batches[0]),
               gpusim::KernelLaunchError);
  pipe.graph().validate();
  EXPECT_EQ(count_in(pipe.graph(), q), before);  // the batch rolled back
  EXPECT_FALSE(pipe.graph().has_pending_batch());

  // The failure was not sticky: quiet the injector and the batch applies.
  inj.set_enabled(false);
  pipe.process_batch(f.stream.batches[0]);
  pipe.graph().validate();
}

// A CPU re-run skips the estimate and the pack, so it must not report the
// walks, estimate or pack figures of the device attempts that failed.
TEST(PipelineFaults, CpuFallbackReportsNoStaleEstimateOrPack) {
  StreamFixture f(54);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(16);
  inj.arm(fault_site::kCacheBuild, {1.0, 0});  // every cache build aborts
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  Pipeline pipe(f.stream.initial, q, opt);

  ASSERT_EQ(f.stream.batches[0].updates.size(), 64u);
  const BatchReport got = pipe.process_batch(f.stream.batches[0]);
  EXPECT_TRUE(got.cpu_fallback);
  EXPECT_EQ(got.walks, 0u);
  EXPECT_EQ(got.sim_estimate_s, 0.0);
  EXPECT_EQ(got.wall_estimate_ms, 0.0);
  EXPECT_EQ(got.sim_pack_s, 0.0);
  EXPECT_EQ(got.wall_pack_ms, 0.0);
  EXPECT_EQ(got.cached_vertices, 0u);
  EXPECT_EQ(got.cache_bytes, 0u);
  EXPECT_EQ(got.stats.signed_embeddings,
            reference.process_batch(f.stream.batches[0])
                .stats.signed_embeddings);
  pipe.graph().validate();
}

TEST(PipelineFaults, UnsanitizedMalformedBatchRollsBackAndRethrows) {
  StreamFixture f(52);
  const QueryGraph q = make_triangle();
  PipelineOptions opt = fault_options(EngineKind::kCpu);
  opt.recovery.sanitize_batches = false;
  Pipeline pipe(f.stream.initial, q, opt);

  EdgeBatch bad;
  bad.updates = {{0, 1'000'000, +1}};
  const std::int64_t before = count_in(pipe.graph(), q);
  EXPECT_THROW(pipe.process_batch(bad), Error);
  pipe.graph().validate();
  EXPECT_EQ(count_in(pipe.graph(), q), before);
  // The pipeline is still usable afterwards.
  pipe.process_batch(f.stream.batches[0]);
  pipe.graph().validate();
}

TEST(PipelineFaults, MalformedBatchIsQuarantinedAndReported) {
  StreamFixture f(53);
  const QueryGraph q = make_triangle();
  Pipeline pipe(f.stream.initial, q, fault_options(EngineKind::kCpu));
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kCpu));

  EdgeBatch bad = f.stream.batches[0];
  bad.updates.push_back({0, 1'000'000, +1});  // out of range
  bad.updates.push_back({2, 2, +1});          // self loop
  const BatchReport got = pipe.process_batch(bad);
  EXPECT_EQ(got.quarantine.out_of_range, 1u);
  EXPECT_EQ(got.quarantine.self_loops, 1u);
  EXPECT_EQ(got.quarantine.quarantined.size(), 2u);

  const BatchReport expect = reference.process_batch(f.stream.batches[0]);
  EXPECT_EQ(got.stats.signed_embeddings, expect.stats.signed_embeddings);
}

// ---------------------------------------------------------------------------
// The recovery ladder on every engine that runs one: Pipeline, a one-query
// MultiQueryEngine, and ShardedMatchEngine at 1 and 2 shards. Each case
// drives one fault schedule through all four and pins what each reports.
// The multi-query engine runs two ladders per batch: the shared phases
// (update, estimate, pack) escalate by dropping the cache, the per-query
// match fan-out by re-running that query on the CPU.

enum class LadderEngine { kPipeline, kMultiQuery, kSharded1, kSharded2 };

std::string ladder_engine_name(LadderEngine engine) {
  switch (engine) {
    case LadderEngine::kPipeline:
      return "Pipeline";
    case LadderEngine::kMultiQuery:
      return "MultiQuery";
    case LadderEngine::kSharded1:
      return "Sharded1";
    case LadderEngine::kSharded2:
      return "Sharded2";
  }
  return "?";
}

// One batch's recovery fields, read off whichever reports the engine fills.
struct LadderOutcome {
  std::uint32_t retries = 0;        // the batch (shared-phase) ladder
  std::uint32_t query_retries = 0;  // the multi-query fan-out ladder
  std::uint32_t degradation_level = 0;
  std::uint64_t effective_cache_budget = 0;
  std::vector<std::uint32_t> shard_levels;  // sharded engine only
  bool cpu_fallback = false;   // the batch (multi-query: the query) ran on CPU
  bool cache_dropped = false;  // multi-query shared phase served zero-copy
  double backoff_ms = 0.0;        // the batch (shared-phase) ladder
  double query_backoff_ms = 0.0;  // the multi-query fan-out ladder
  std::int64_t signed_embeddings = 0;
};

class LadderHarness {
 public:
  LadderHarness(LadderEngine engine, const CsrGraph& initial,
                const QueryGraph& q, const PipelineOptions& opt) {
    if (engine == LadderEngine::kPipeline) {
      pipe_ = std::make_unique<Pipeline>(initial, q, opt);
    } else if (engine == LadderEngine::kMultiQuery) {
      server::MultiQueryOptions mo;
      mo.kind = opt.kind;
      mo.sim = opt.sim;
      mo.cache_budget_bytes = opt.cache_budget_bytes;
      mo.estimator = opt.estimator;
      mo.workers = opt.workers;
      mo.recovery = opt.recovery;
      mo.fault_injector = opt.fault_injector;
      multi_ = std::make_unique<server::MultiQueryEngine>(initial, mo);
      id_ = multi_->register_query(q);
    } else {
      shard::ShardedEngineOptions so;
      so.num_shards = engine == LadderEngine::kSharded1 ? 1 : 2;
      so.kind = opt.kind;
      so.sim = opt.sim;
      so.cache_budget_bytes = opt.cache_budget_bytes;
      so.estimator = opt.estimator;
      so.recovery = opt.recovery;
      so.fault_injector = opt.fault_injector;
      sharded_ = std::make_unique<shard::ShardedMatchEngine>(initial, so);
      id_ = sharded_->register_query(q);
    }
  }

  LadderOutcome process(const EdgeBatch& batch) {
    LadderOutcome o;
    if (pipe_ != nullptr) {
      read(pipe_->process_batch(batch), o);
    } else if (multi_ != nullptr) {
      const server::ServerBatchReport r = multi_->process_batch(batch);
      read(r.shared, o);
      const BatchReport& q = r.queries.at(0).report;
      o.query_retries = q.retries;
      o.cpu_fallback = q.cpu_fallback;
      o.query_backoff_ms = q.backoff_ms;
      o.cache_dropped = r.cache_dropped;
    } else {
      read(sharded_->process_batch(batch).shared, o);
      for (std::size_t s = 0; s < sharded_->options().num_shards; ++s) {
        o.shard_levels.push_back(sharded_->degradation_level(s));
      }
    }
    return o;
  }

  std::uint64_t count() {
    if (pipe_ != nullptr) return pipe_->count_current_embeddings();
    if (multi_ != nullptr) return multi_->count_current_embeddings(id_);
    return sharded_->count_current_embeddings(id_);
  }

  void validate() const {
    if (pipe_ != nullptr) pipe_->graph().validate();
    if (multi_ != nullptr) multi_->graph().validate();
    if (sharded_ != nullptr) sharded_->sharded_graph().validate();
  }

 private:
  static void read(const BatchReport& r, LadderOutcome& o) {
    o.retries = r.retries;
    o.degradation_level = r.degradation_level;
    o.effective_cache_budget = r.effective_cache_budget;
    o.cpu_fallback = r.cpu_fallback;
    o.backoff_ms = r.backoff_ms;
    o.signed_embeddings = r.stats.signed_embeddings;
  }

  std::unique_ptr<Pipeline> pipe_;
  std::unique_ptr<server::MultiQueryEngine> multi_;
  std::unique_ptr<shard::ShardedMatchEngine> sharded_;
  std::uint32_t id_ = 0;
};

// Sum of the first `failures` capped exponential backoff steps.
double backoff_sum(const RecoveryOptions& rec, int failures) {
  double step = rec.backoff_initial_ms;
  double total = 0.0;
  for (int i = 0; i < failures; ++i) {
    total += step;
    step = std::min(step * rec.backoff_multiplier, rec.backoff_max_ms);
  }
  return total;
}

class LadderFaults : public ::testing::TestWithParam<LadderEngine> {
 protected:
  LadderEngine engine() const { return GetParam(); }
  bool multi() const { return engine() == LadderEngine::kMultiQuery; }
  bool sharded() const {
    return engine() == LadderEngine::kSharded1 ||
           engine() == LadderEngine::kSharded2;
  }
  std::size_t shards() const {
    return engine() == LadderEngine::kSharded2 ? 2 : 1;
  }
};

TEST_P(LadderFaults, TransientKernelFaultRetries) {
  StreamFixture f(47);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(11);
  inj.arm(fault_site::kKernelLaunch, {0.0, 1});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  LadderHarness h(engine(), f.stream.initial, q, opt);

  const LadderOutcome got = h.process(f.stream.batches[0]);
  EXPECT_EQ(got.signed_embeddings,
            reference.process_batch(f.stream.batches[0])
                .stats.signed_embeddings);
  // The multi-query engine launches kernels only in the fan-out, so the
  // fault costs the query's ladder one retry and the shared ladder none.
  EXPECT_EQ(got.retries, multi() ? 0u : 1u);
  EXPECT_EQ(got.query_retries, multi() ? 1u : 0u);
  EXPECT_FALSE(got.cpu_fallback);  // the second device attempt succeeds
  EXPECT_FALSE(got.cache_dropped);
  EXPECT_EQ(got.degradation_level, 0u);
  EXPECT_EQ(got.effective_cache_budget, opt.cache_budget_bytes);
  h.validate();
}

TEST_P(LadderFaults, OomShrinksBudgetThenHeals) {
  StreamFixture f(49, 400, 32, 128);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(13);
  inj.arm(fault_site::kDeviceAlloc, {0.0, 1});  // first device alloc OOMs
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.heal_after_clean_batches = 2;
  LadderHarness h(engine(), f.stream.initial, q, opt);
  const std::uint64_t budget = opt.cache_budget_bytes;
  const std::uint64_t slice = budget / shards();

  const LadderOutcome r0 = h.process(f.stream.batches[0]);
  EXPECT_EQ(r0.retries, 1u);  // the shrink; no attempt consumed
  EXPECT_EQ(r0.query_retries, 0u);
  EXPECT_EQ(r0.degradation_level, 1u);
  // A sharded engine reports the sum of its slices; only shard 0 (the
  // first to pack) shrank.
  EXPECT_EQ(r0.effective_cache_budget, budget - slice / 2);
  if (sharded()) {
    EXPECT_EQ(r0.shard_levels.front(), 1u);
    if (shards() == 2) {
      EXPECT_EQ(r0.shard_levels.back(), 0u);
    }
  }
  EXPECT_FALSE(r0.cpu_fallback);
  EXPECT_FALSE(r0.cache_dropped);
  EXPECT_EQ(r0.backoff_ms, 0.0);

  const LadderOutcome r1 = h.process(f.stream.batches[1]);
  EXPECT_EQ(r1.retries, 0u);
  EXPECT_EQ(r1.degradation_level, 1u);  // one clean batch: still degraded
  const LadderOutcome r2 = h.process(f.stream.batches[2]);
  EXPECT_EQ(r2.degradation_level, 0u);  // two clean batches: healed
  EXPECT_EQ(r2.effective_cache_budget, budget);

  std::int64_t expected = static_cast<std::int64_t>(
      reference_count_embeddings(f.stream.initial, q));
  const LadderOutcome* got[] = {&r0, &r1, &r2};
  for (int k = 0; k < 3; ++k) {
    const std::int64_t want =
        reference.process_batch(f.stream.batches[k]).stats.signed_embeddings;
    EXPECT_EQ(got[k]->signed_embeddings, want) << "batch " << k;
    expected += want;
  }
  EXPECT_EQ(static_cast<std::int64_t>(h.count()), expected);
  h.validate();
}

TEST_P(LadderFaults, OomAtBudgetFloorEscalates) {
  StreamFixture f(50);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(14);
  inj.arm(fault_site::kDeviceAlloc, {1.0, 0});  // every device alloc OOMs
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.cache_budget_bytes = 64 << 10;
  opt.recovery.min_cache_budget_bytes = 64 << 10;  // already at the floor
  opt.recovery.max_attempts = 2;
  LadderHarness h(engine(), f.stream.initial, q, opt);

  const LadderOutcome got = h.process(f.stream.batches[0]);
  EXPECT_EQ(got.signed_embeddings,
            reference.process_batch(f.stream.batches[0])
                .stats.signed_embeddings);
  // Both device attempts OOM at the floor, then the ladder escalates: a
  // CPU re-run, or (multi-query shared phase) a zero-copy batch with no
  // cache build, whose match then needs no device memory.
  EXPECT_EQ(got.retries, 2u);
  EXPECT_EQ(got.query_retries, 0u);
  EXPECT_EQ(got.cpu_fallback, !multi());
  EXPECT_EQ(got.cache_dropped, multi());
  EXPECT_EQ(got.degradation_level, 0u);
  // Every shard sits at the floor, even where its slice is below it.
  EXPECT_EQ(got.effective_cache_budget, shards() * (64u << 10));
  h.validate();
}

TEST_P(LadderFaults, ExhaustedRetriesRethrowWithGraphRolledBack) {
  StreamFixture f(51);
  const QueryGraph q = make_triangle();

  FaultInjector inj(15);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});  // every launch refused
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 2;
  opt.recovery.cpu_fallback = false;
  LadderHarness h(engine(), f.stream.initial, q, opt);

  const std::uint64_t before = h.count();
  try {
    h.process(f.stream.batches[0]);
    FAIL() << "an exhausted ladder must rethrow";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kKernelLaunch);
  }
  h.validate();
  EXPECT_EQ(h.count(), before);  // the batch rolled back

  // The failure was not sticky: quiet the injector and the batch applies.
  inj.set_enabled(false);
  const LadderOutcome after = h.process(f.stream.batches[0]);
  EXPECT_EQ(after.retries, 0u);
  EXPECT_EQ(after.query_retries, 0u);
  EXPECT_FALSE(after.cpu_fallback);
  h.validate();
}

// Backoff on the parked path: the batch (shared-phase) ladder parks the
// engine thread between attempts. Every cache build fails, so the three
// device attempts cost three steps of the capped exponential schedule
// before the escalated attempt, which builds no cache, succeeds.
TEST_P(LadderFaults, ParkedBackoffIsTheCappedExponentialSum) {
  StreamFixture f(52);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(16);
  inj.arm(fault_site::kCacheBuild, {1.0, 0});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 3;
  opt.recovery.backoff_initial_ms = 0.125;
  opt.recovery.backoff_multiplier = 2.0;
  opt.recovery.backoff_max_ms = 0.375;  // the third step is capped
  LadderHarness h(engine(), f.stream.initial, q, opt);

  const Timer t;
  const LadderOutcome got = h.process(f.stream.batches[0]);
  const double wall_ms = t.millis();
  EXPECT_EQ(got.signed_embeddings,
            reference.process_batch(f.stream.batches[0])
                .stats.signed_embeddings);
  EXPECT_EQ(got.retries, 3u);
  EXPECT_EQ(got.cpu_fallback, !multi());
  EXPECT_EQ(got.cache_dropped, multi());
  EXPECT_DOUBLE_EQ(got.backoff_ms, 0.125 + 0.25 + 0.375);
  EXPECT_DOUBLE_EQ(got.backoff_ms, backoff_sum(opt.recovery, 3));
  EXPECT_EQ(got.query_backoff_ms, 0.0);
  EXPECT_GE(wall_ms, got.backoff_ms);  // the engine thread really parked
  h.validate();
}

INSTANTIATE_TEST_SUITE_P(Engines, LadderFaults,
                         ::testing::Values(LadderEngine::kPipeline,
                                           LadderEngine::kMultiQuery,
                                           LadderEngine::kSharded1,
                                           LadderEngine::kSharded2),
                         [](const auto& info) {
                           return ladder_engine_name(info.param);
                         });

// Only the shard whose pack raised the OOM steps down its budget ladder.
// Shard 0 packs first, so the second device allocation is shard 1's.
TEST(LadderSharded, OomShrinksOnlyTheShardThatRaisedIt) {
  StreamFixture f(49, 400, 32, 128);
  const QueryGraph q = make_triangle();

  FaultInjector inj(13);
  inj.arm(fault_site::kDeviceAlloc, {0.0, 2});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  LadderHarness h(LadderEngine::kSharded2, f.stream.initial, q, opt);

  const LadderOutcome got = h.process(f.stream.batches[0]);
  EXPECT_EQ(got.retries, 1u);
  EXPECT_EQ(got.shard_levels, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(got.effective_cache_budget, opt.cache_budget_bytes / 4 * 3);
  h.validate();
}

// A kind that packs no cache (zero-copy here) has nothing for the shared
// ladder to drop, so its shared phase starts on the last rung: a failure
// is retried, never escalated, and an exhausted ladder rethrows.
TEST(LadderMultiQuery, CachelessKindRetriesWithoutEscalating) {
  StreamFixture f(55);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q,
                     fault_options(EngineKind::kZeroCopy));
  const std::int64_t want =
      reference.process_batch(f.stream.batches[0]).stats.signed_embeddings;

  for (const int attempts : {2, 1}) {
    SCOPED_TRACE("max_attempts=" + std::to_string(attempts));
    FaultInjector inj(18);
    inj.arm(fault_site::kGraphApply, {0.0, 1});  // the first apply fails
    PipelineOptions opt = fault_options(EngineKind::kZeroCopy);
    opt.fault_injector = &inj;
    opt.recovery.max_attempts = attempts;
    LadderHarness h(LadderEngine::kMultiQuery, f.stream.initial, q, opt);
    const std::uint64_t before = h.count();

    if (attempts == 2) {
      const LadderOutcome got = h.process(f.stream.batches[0]);
      EXPECT_EQ(got.retries, 1u);
      EXPECT_FALSE(got.cache_dropped);
      EXPECT_EQ(got.signed_embeddings, want);
    } else {
      try {
        h.process(f.stream.batches[0]);
        FAIL() << "a one-attempt ladder must rethrow";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kGraphApply);
      }
      EXPECT_EQ(h.count(), before);  // the batch rolled back
    }
    h.validate();
  }
}

// Backoff on the fan-out path: a failing query is requeued with a ready-at
// deadline instead of parking a pool worker. Every device launch fails, so
// the query's three device attempts cost three backoff steps before its
// CPU re-run succeeds; the shared phase never fails.
TEST(LadderFanout, RequeueBackoffIsTheCappedExponentialSum) {
  StreamFixture f(53);
  const QueryGraph q = make_triangle();
  Pipeline reference(f.stream.initial, q, fault_options(EngineKind::kGcsm));

  FaultInjector inj(17);
  inj.arm(fault_site::kKernelLaunch, {1.0, 0});
  PipelineOptions opt = fault_options(EngineKind::kGcsm);
  opt.fault_injector = &inj;
  opt.recovery.max_attempts = 3;
  opt.recovery.backoff_initial_ms = 0.125;
  opt.recovery.backoff_multiplier = 2.0;
  opt.recovery.backoff_max_ms = 0.375;
  LadderHarness h(LadderEngine::kMultiQuery, f.stream.initial, q, opt);

  const Timer t;
  const LadderOutcome got = h.process(f.stream.batches[0]);
  const double wall_ms = t.millis();
  EXPECT_EQ(got.signed_embeddings,
            reference.process_batch(f.stream.batches[0])
                .stats.signed_embeddings);
  EXPECT_EQ(got.retries, 0u);
  EXPECT_EQ(got.backoff_ms, 0.0);
  EXPECT_EQ(got.query_retries, 3u);
  EXPECT_TRUE(got.cpu_fallback);
  EXPECT_DOUBLE_EQ(got.query_backoff_ms, 0.125 + 0.25 + 0.375);
  EXPECT_DOUBLE_EQ(got.query_backoff_ms, backoff_sum(opt.recovery, 3));
  EXPECT_GE(wall_ms, got.query_backoff_ms);  // the requeue waited it out
  h.validate();
}

// ---------------------------------------------------------------------------
// The acceptance matrix: every site armed at p = 0.05 over a 200-batch GCSM
// run. The faulty pipeline must report per-batch signed counts BIT-IDENTICAL
// to a fault-free reference, finish with a validating graph, and demonstrate
// each rung of the ladder (retry, budget shrink, CPU fallback) at least once.

TEST(FaultMatrix, GcsmRun200BatchesBitIdenticalUnderFaults) {
  Rng rng(2026);
  const CsrGraph base = generate_barabasi_albert(600, 4, 3, rng);
  UpdateStreamOptions sopt;
  sopt.pool_edge_count = 1600;
  sopt.batch_size = 8;
  sopt.seed = 5;
  const UpdateStream stream = make_update_stream(base, sopt);
  ASSERT_EQ(stream.num_batches(), 200u);

  const QueryGraph q = make_triangle();
  const PipelineOptions clean_opt = fault_options(EngineKind::kGcsm);

  FaultInjector inj(0xFA01);
  inj.arm_all(0.05);
  PipelineOptions faulty_opt = clean_opt;
  faulty_opt.fault_injector = &inj;
  faulty_opt.recovery.max_attempts = 2;
  faulty_opt.recovery.heal_after_clean_batches = 4;

  Pipeline clean(stream.initial, q, clean_opt);
  Pipeline faulty(stream.initial, q, faulty_opt);

  std::uint64_t total_retries = 0;
  std::uint64_t total_quarantined = 0;
  std::uint64_t cpu_fallbacks = 0;
  std::uint32_t max_degradation = 0;
  for (std::size_t k = 0; k < stream.num_batches(); ++k) {
    const BatchReport want = clean.process_batch(stream.batches[k]);
    const BatchReport got = faulty.process_batch(stream.batches[k]);
    ASSERT_EQ(got.stats.signed_embeddings, want.stats.signed_embeddings)
        << "counts diverged at batch " << k;
    ASSERT_EQ(got.stats.positive, want.stats.positive) << "batch " << k;
    ASSERT_EQ(got.stats.negative, want.stats.negative) << "batch " << k;
    total_retries += got.retries;
    total_quarantined += got.quarantine.total();
    cpu_fallbacks += got.cpu_fallback ? 1 : 0;
    max_degradation = std::max(max_degradation, got.degradation_level);
  }

  // Zero invariant failures at the end of the run.
  faulty.graph().validate();
  clean.graph().validate();
  EXPECT_EQ(faulty.graph().to_csr().edge_list(),
            clean.graph().to_csr().edge_list());

  // Every rung of the recovery ladder was exercised.
  EXPECT_GT(inj.fired_count(), 0u);
  EXPECT_GE(total_retries, 1u);
  EXPECT_GE(max_degradation, 1u);  // at least one cache-budget shrink
  EXPECT_GE(cpu_fallbacks, 1u);    // at least one CPU re-run
  EXPECT_GE(total_quarantined, 1u);
}

}  // namespace
}  // namespace gcsm
