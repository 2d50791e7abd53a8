// gcsm_perfbench: one benchmark run of one workload (perfbench/README.md).
//
//   gcsm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--scratch <dir>] [--smoke]
//
// A run is a few passes over the same seeded batches, each with its own
// set-up. Untraced runs make three passes and report the end-to-end
// metrics; traced runs make an untraced and a traced pass and report the
// per-layer metrics. Every run checks the outputs: each pass's summed
// per-batch deltas must equal M(G_end) - M(G_0) from static counts, and
// every pass must reproduce the first pass's per-batch counts.
//
// Standard output ends with one JSON line {correct, attempted, failed,
// metrics}; the line before it describes the run (build fingerprint, sample
// counts, the tail percentile, and a digest of counts and simulated times).
// The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

#ifndef GCSM_PERFBENCH_BUILD_TYPE
#define GCSM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GCSM_PERFBENCH_CXX_ID
#define GCSM_PERFBENCH_CXX_ID "unknown"
#endif

namespace perfbench {
namespace {

using gcsm::metrics::Snapshot;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".bench_build/scratch";
  bool smoke = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "gcsm_perfbench: %s\nusage: gcsm_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] "
               "[--smoke]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--scratch") {
        a.scratch = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (find_workload(a.workload) == nullptr) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

// Tiny inputs for the determinism self-test.
double smoke_scale(const WorkloadSpec& w) {
  return std::string(w.dataset) == "LJ" ? 0.02 : 0.05;
}

RunConfig make_config(const Args& a) {
  RunConfig c;
  c.spec = find_workload(a.workload);
  c.seed = a.seed;
  c.seconds = a.seconds;
  c.trace = a.trace == 1;
  c.smoke = a.smoke;
  c.scratch_dir = a.scratch;
  // Passes repeat the same batches, each on a freshly built engine, and the
  // run reports medians over passes: a pass slowed by other load on the
  // host, or by its heap layout, does not set the run's figure. A traced
  // run pairs one untraced pass with one traced pass.
  constexpr std::size_t kPasses = 5;
  c.passes = c.trace ? 2 : kPasses;
  const WorkloadSpec& w = *c.spec;
  if (c.smoke) {
    c.scale = smoke_scale(w);
    c.batches_per_pass = 2 * w.group;
    return c;
  }
  c.scale = w.scale;
  const double batch_ms = w.engine == EngineType::kServer
                              ? 1e3 / w.arrival_per_s
                              : w.nominal_batch_ms;
  double batches = std::round(a.seconds * 1e3 / batch_ms / kPasses);
  const auto group = static_cast<double>(w.group);
  batches = std::max(2.0 * group, std::ceil(batches / group) * group);
  c.batches_per_pass = static_cast<std::size_t>(batches);
  return c;
}

// ---- metric helpers --------------------------------------------------------

// A registry series summed over every metric scope ("", "q3.", "shard0.").
std::uint64_t counter_sum(const Snapshot& s, const std::string& base) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : s.counters) {
    if (name == base ||
        (name.size() > base.size() &&
         name.compare(name.size() - base.size(), base.size(), base) == 0 &&
         name[name.size() - base.size() - 1] == '.')) {
      sum += value;
    }
  }
  return sum;
}

struct HistDelta {
  std::uint64_t count = 0;
  double sum = 0.0;
};

HistDelta hist_delta(const Snapshot& before, const Snapshot& after,
                     const std::string& name) {
  HistDelta d;
  const auto* b = before.histogram(name);
  const auto* a = after.histogram(name);
  if (a == nullptr) return d;
  d.count = a->count - (b != nullptr ? b->count : 0);
  d.sum = a->sum - (b != nullptr ? b->sum : 0.0);
  return d;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// FNV-1a accumulator: equal digests mean bit-identical inputs.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t counts_digest(const std::vector<BatchSample>& batches) {
  Digest d;
  for (const BatchSample& b : batches) {
    for (const std::int64_t c : b.signed_counts) {
      d.mix(static_cast<std::uint64_t>(c));
    }
  }
  return d.value();
}

std::uint64_t sim_digest(const std::vector<BatchSample>& batches) {
  Digest d;
  for (const BatchSample& b : batches) {
    d.mix(b.sim_estimate_ms);
    d.mix(b.sim_pack_ms);
    d.mix(b.sim_match_ms);
    d.mix(b.sim_reorg_ms);
  }
  return d.value();
}

// Largest relative difference of a batch's simulated time from the same
// batch in the first pass (0 when every pass is bit-identical).
double sim_deviation(const std::vector<PassResult>& passes) {
  const std::vector<BatchSample>& ref = passes.front().batches;
  double worst = 0.0;
  for (const PassResult& p : passes) {
    for (std::size_t k = 0; k < p.batches.size() && k < ref.size(); ++k) {
      const double a = p.batches[k].sim_ms();
      const double b = ref[k].sim_ms();
      if (a != b) worst = std::max(worst, std::abs(a - b) / std::abs(b));
    }
  }
  return worst;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- the run ---------------------------------------------------------------

struct Checked {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
};

// The correctness gate. Failed batches: those that threw or never
// surfaced, every batch of a pass whose deltas do not telescope to the
// static counts, and every batch whose counts differ from the first pass
// (which also compares the traced pass with the untraced one).
Checked check(const std::vector<PassResult>& passes,
              const StaticCounts& statics) {
  Checked c;
  const std::vector<BatchSample>& ref = passes.front().batches;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pr = passes[p];
    c.attempted += pr.offered;
    std::size_t bad = pr.failed;
    if (!pr.error.empty()) {
      c.problems.push_back("pass " + std::to_string(p) + ": " + pr.error);
    }
    if (pr.failed == 0) {
      std::vector<std::int64_t> sum(statics.delta.size(), 0);
      for (const BatchSample& b : pr.batches) {
        for (std::size_t q = 0; q < sum.size() && q < b.signed_counts.size();
             ++q) {
          sum[q] += b.signed_counts[q];
        }
      }
      if (sum != statics.delta) {
        c.problems.push_back("pass " + std::to_string(p) +
                             ": summed deltas differ from M(G_end) - M(G_0)");
        bad = pr.offered;
      }
    }
    if (bad < pr.offered) {
      for (std::size_t k = 0; k < pr.batches.size(); ++k) {
        if (k >= ref.size() ||
            pr.batches[k].signed_counts != ref[k].signed_counts) {
          c.problems.push_back("pass " + std::to_string(p) + " batch " +
                               std::to_string(k) +
                               ": counts differ from pass 0");
          ++bad;
        }
      }
    }
    c.failed += std::min(bad, pr.offered);
  }
  return c;
}

// Highest nearest-rank percentile that leaves at least ten samples above
// it, never below the median (only tiny smoke runs have fewer than 20).
double tail_percentile(std::size_t n) {
  if (n <= 20) return 50.0;
  return 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
}

// Per-batch latency of the untraced passes. The p50 is the median over
// passes of each pass's p50. The tail is taken the same way when every pass
// holds at least 50 batches (a tail of p80 or higher); smaller passes pool
// their samples for it.
struct LatencySummary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
  std::size_t tail_samples = 0;  // per pass, or pooled
  bool tail_per_pass = false;
};

LatencySummary summarize_latency(const std::vector<PassResult>& passes) {
  constexpr std::size_t kPerPassTail = 50;
  std::vector<std::vector<double>> per;
  for (const PassResult& p : passes) {
    if (p.traced) continue;
    std::vector<double> v;
    for (const BatchSample& b : p.batches) v.push_back(b.latency_ms);
    per.push_back(std::move(v));
  }
  LatencySummary s;
  std::vector<double> p50s;
  std::vector<double> tails;
  std::vector<double> pooled;
  s.tail_per_pass = !per.empty();
  for (const std::vector<double>& v : per) {
    p50s.push_back(gcsm::percentile(v, 50.0));
    tails.push_back(gcsm::percentile(v, tail_percentile(v.size())));
    pooled.insert(pooled.end(), v.begin(), v.end());
    s.tail_per_pass = s.tail_per_pass && v.size() >= kPerPassTail;
  }
  s.p50 = median(p50s);
  if (s.tail_per_pass) {
    s.tail = median(tails);
    s.tail_samples = per.front().size();
  } else {
    s.tail_samples = pooled.size();
    s.tail = gcsm::percentile(pooled, tail_percentile(s.tail_samples));
  }
  s.tail_percentile = tail_percentile(s.tail_samples);
  return s;
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               const Checked& checked) {
  std::vector<double> setups;
  std::vector<double> throughputs;  // per pass
  double sim_sum = 0.0;
  std::size_t n = 0;
  for (const PassResult& p : passes) {
    setups.push_back(p.setup_s);
    double updates = 0.0;
    for (const BatchSample& b : p.batches) {
      updates += static_cast<double>(b.updates);
      sim_sum += b.sim_ms();
      ++n;
    }
    throughputs.push_back(ratio(updates, p.span_s));
  }
  const LatencySummary lat = summarize_latency(passes);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", median(setups), "s"},
      {"updates_per_s", median(throughputs), "1/s"},
      {"batch_p50_ms", lat.p50, "ms"},
      {"batch_tail_ms", lat.tail, "ms"},
      {"sim_batch_ms", ratio(sim_sum, static_cast<double>(n)), "ms"},
      // Add-one smoothed so that it is never 0: 1/(attempted+1) means no
      // batch failed; the raw count is the result line's "failed".
      {"fail_ratio",
       static_cast<double>(checked.failed + 1) /
           static_cast<double>(checked.attempted + 1),
       "ratio"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer(
    const std::vector<PassResult>& passes,
    const std::vector<gcsm::trace::TraceEvent>& events, std::string& note) {
  std::vector<const BatchSample*> tb;  // traced batches
  double traced_busy = 0.0;
  double untraced_busy = 0.0;
  std::size_t untraced_batches = 0;
  std::uint64_t items = 0, steals = 0, built = 0, walks = 0, nodes = 0,
                applied = 0, reorg_entries = 0, staged = 0, discards = 0,
                fsyncs = 0, wal_bytes = 0, snap_writes = 0, snap_bytes = 0;
  double fsync_ms = 0.0;
  HistDelta groups;
  std::vector<double> lags;
  double spanless_est = 0.0;
  double spanless_match = 0.0;
  for (const PassResult& p : passes) {
    lags.insert(lags.end(), p.driver_lag_ms.begin(), p.driver_lag_ms.end());
    if (!p.traced) {
      untraced_busy += p.busy_ms;
      untraced_batches += p.batches.size();
      continue;
    }
    traced_busy += p.busy_ms;
    for (const BatchSample& b : p.batches) {
      tb.push_back(&b);
      spanless_est += b.spanless_estimate_ms;
      spanless_match += b.spanless_match_ms;
    }
    auto d = [&p](const char* base) {
      return counter_sum(p.after, base) - counter_sum(p.before, base);
    };
    items += d("kernel.items");
    steals += d("kernel.steal_chunks");
    built += d("cache.built_bytes");
    walks += d("estimator.walks");
    nodes += d("estimator.nodes_visited");
    applied += d("graph.edges_inserted") + d("graph.edges_tombstoned");
    reorg_entries += d("graph.reorg.entries");
    staged += d("pipeline.overlap.staged_estimates");
    discards += d("pipeline.overlap.staged_discards");
    fsyncs += d("wal.fsyncs");
    wal_bytes += d("wal.bytes");
    snap_writes += d("snapshot.writes");
    snap_bytes += d("snapshot.bytes");
    fsync_ms += hist_delta(p.before, p.after, "wal.fsync_ms").sum;
    const HistDelta g = hist_delta(p.before, p.after, "wal.group_commit.size");
    groups.count += g.count;
    groups.sum += g.sum;
  }
  const LayerTimes lt = attribute_layers(events, spanless_est, spanless_match);
  const double n = static_cast<double>(std::max<std::size_t>(1, tb.size()));
  auto per_batch = [n](double v) { return v / n; };
  // Sum of one BatchSample member over the traced batches.
  auto sum_of = [&tb](auto field) {
    double s = 0.0;
    for (const BatchSample* b : tb) s += static_cast<double>(b->*field);
    return s;
  };
  const double compute_ops = sum_of(&BatchSample::compute_ops);
  const double hits = sum_of(&BatchSample::cache_hits);
  const double misses = sum_of(&BatchSample::cache_misses);

  const double accounted = lt.attributed_ms() + lt.unattributed_ms;
  note = "\"traced_batches\": " + std::to_string(tb.size()) +
         ", \"traced_wall_ms\": " + number(lt.batch_wall_ms) +
         ", \"accounted_ms\": " + number(accounted);

  return {
      {"match.ms", per_batch(lt.match_ms), "ms"},
      {"match.compute_ops", per_batch(compute_ops), "count/batch"},
      {"match.ops_per_us", ratio(compute_ops, lt.match_work_ms * 1e3),
       "ops/us"},
      {"match.kernel_items", per_batch(static_cast<double>(items)),
       "count/batch"},
      {"match.steal_chunks", per_batch(static_cast<double>(steals)),
       "count/batch"},
      {"match.embeddings",
       per_batch(sum_of(&BatchSample::embeddings)),
       "count/batch"},
      {"match.cache_hits", per_batch(hits), "count/batch"},
      {"match.cache_misses", per_batch(misses), "count/batch"},
      {"match.hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"match.zero_copy_bytes",
       per_batch(sum_of(&BatchSample::zero_copy_bytes)),
       "bytes/batch"},
      {"pack.bytes", per_batch(static_cast<double>(built)), "bytes/batch"},
      {"pack.cached_vertices",
       per_batch(sum_of(&BatchSample::cached_vertices)),
       "count/batch"},
      {"pack.ms", per_batch(lt.pack_ms), "ms"},
      {"estimate.ms", per_batch(lt.estimate_ms), "ms"},
      {"estimate.walks", per_batch(static_cast<double>(walks)), "count/batch"},
      {"estimate.nodes_visited", per_batch(static_cast<double>(nodes)),
       "count/batch"},
      {"estimate.ns_per_node",
       ratio(lt.estimate_work_ms * 1e6, static_cast<double>(nodes)), "ns"},
      {"graph.update_ms", per_batch(lt.update_ms), "ms"},
      {"graph.reorg_ms", per_batch(lt.reorg_ms), "ms"},
      {"graph.edges_applied", per_batch(static_cast<double>(applied)),
       "count/batch"},
      {"graph.reorg_entries", per_batch(static_cast<double>(reorg_entries)),
       "count/batch"},
      {"pipeline.batch_ms", per_batch(lt.pipeline_batch_ms), "ms"},
      {"pipeline.txn_ms", per_batch(lt.txn_ms), "ms"},
      {"pipeline.retries",
       per_batch(sum_of(&BatchSample::retries)),
       "count/batch"},
      {"pipeline.cpu_fallbacks",
       per_batch(sum_of(&BatchSample::cpu_fallbacks)),
       "count/batch"},
      {"server.queue_wait_ms",
       per_batch(sum_of(&BatchSample::queue_wait_ms)),
       "ms"},
      {"server.stream_ms", per_batch(lt.stream_ms), "ms"},
      {"server.query_match_ms", per_batch(lt.query_match_ms), "ms"},
      {"server.slowest_query_ms",
       per_batch(sum_of(&BatchSample::slowest_query_ms)),
       "ms"},
      {"server.staged_estimates", per_batch(static_cast<double>(staged)),
       "count/batch"},
      {"server.staged_discards", per_batch(static_cast<double>(discards)),
       "count/batch"},
      {"wal.fsync_ms", per_batch(fsync_ms), "ms"},
      {"wal.fsyncs", per_batch(static_cast<double>(fsyncs)), "count/batch"},
      {"wal.bytes", per_batch(static_cast<double>(wal_bytes)), "bytes/batch"},
      {"wal.group_size", ratio(groups.sum, static_cast<double>(groups.count)),
       "count"},
      {"snapshot.writes", per_batch(static_cast<double>(snap_writes)),
       "count/batch"},
      {"snapshot.bytes", per_batch(static_cast<double>(snap_bytes)),
       "bytes/batch"},
      {"shard.match_ms",
       per_batch(sum_of(&BatchSample::spanless_match_ms)),
       "ms"},
      {"shard.stitch_ms",
       per_batch(sum_of(&BatchSample::stitch_ms)),
       "ms"},
      {"shard.stitch_candidates",
       per_batch(sum_of(&BatchSample::stitch_candidates)),
       "count/batch"},
      {"shard.routed_joins",
       per_batch(sum_of(&BatchSample::routed_joins)),
       "count/batch"},
      {"shard.match_skew",
       per_batch(sum_of(&BatchSample::match_skew)),
       "ratio"},
      {"shard.cut_edges",
       per_batch(sum_of(&BatchSample::cut_edges)),
       "count"},
      {"shard.imbalance",
       per_batch(sum_of(&BatchSample::imbalance)),
       "ratio"},
      {"sim.estimate_ms",
       per_batch(sum_of(&BatchSample::sim_estimate_ms)),
       "ms"},
      {"sim.pack_ms",
       per_batch(sum_of(&BatchSample::sim_pack_ms)),
       "ms"},
      {"sim.match_ms",
       per_batch(sum_of(&BatchSample::sim_match_ms)),
       "ms"},
      {"sim.reorg_ms",
       per_batch(sum_of(&BatchSample::sim_reorg_ms)),
       "ms"},
      {"bench.trace_overhead",
       ratio(traced_busy / n,
             untraced_busy / static_cast<double>(
                                 std::max<std::size_t>(1, untraced_batches))),
       "ratio"},
      {"bench.driver_lag_ms", mean(lags), "ms"},
      {"bench.unattributed_ms", per_batch(lt.unattributed_ms), "ms"},
  };
}

// Share of CPU time the hypervisor took from the virtual machine (the "steal"
// column of /proc/stat) between two reads; 0 where it is not reported.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

// Each pass's median batch latency, as a JSON list body.
std::string pass_p50s(const std::vector<PassResult>& passes) {
  std::string out;
  for (const PassResult& p : passes) {
    std::vector<double> v;
    for (const BatchSample& b : p.batches) v.push_back(b.latency_ms);
    if (!out.empty()) out += ", ";
    out += number(gcsm::percentile(v, 50.0));
  }
  return out;
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__) && defined(__SANITIZE_THREAD__)
  return "address,thread";
#elif defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const RunConfig cfg = make_config(args);
  std::filesystem::create_directories(cfg.scratch_dir);

  // A traced run records the static check and its traced pass.
  gcsm::trace::TraceCollector collector;
  gcsm::trace::TraceCollector* traced = cfg.trace ? &collector : nullptr;
  StaticCounts statics;
  {
    const ArmTrace armed(traced);
    statics = count_static(cfg);
  }
  const CpuTimes cpu_before = read_cpu_times();
  std::vector<PassResult> passes;
  for (std::size_t p = 0; p < cfg.passes; ++p) {
    passes.push_back(run_pass(cfg, p % 2 == 1 ? traced : nullptr, p));
  }
  const CpuTimes cpu_after = read_cpu_times();
  const Checked checked = check(passes, statics);
  const bool correct = checked.failed == 0;
  for (const std::string& problem : checked.problems) {
    std::fprintf(stderr, "gcsm_perfbench: %s\n", problem.c_str());
  }

  std::string layer_note;
  std::vector<Metric> metrics;
  if (cfg.trace) {
    metrics = per_layer(passes, collector.events(), layer_note);
    // Spans stay in memory until here; the file loads in chrome://tracing
    // or Perfetto.
    const std::filesystem::path file =
        std::filesystem::path(cfg.scratch_dir).parent_path() /
        ("trace-" + std::string(cfg.spec->name) + ".json");
    std::FILE* f = std::fopen(file.c_str(), "w");
    if (f != nullptr) {
      const std::string json = collector.to_chrome_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  } else {
    metrics = end_to_end(passes, checked);
  }

  // Numbers from a checks or sanitizer build are not comparable: the
  // invariant validation runs on every batch.
  const bool checks = GCSM_CHECKS_ENABLED != 0;
  const bool valid = !checks && std::strcmp(sanitizer(), "none") == 0;
  const LatencySummary lat = summarize_latency(passes);
  const double steal_share =
      ratio(static_cast<double>(cpu_after.steal - cpu_before.steal),
            static_cast<double>(cpu_after.total - cpu_before.total));
  double busy_ms = 0.0;
  double span_ms = 0.0;
  for (const PassResult& p : passes) {
    busy_ms += p.busy_ms;
    span_ms += p.span_s * 1e3;
  }
  std::string info = "{\"perfbench\": {\"workload\": ";
  append_json_string(info, cfg.spec->name);
  info += ", \"seed\": " + std::to_string(cfg.seed) +
          ", \"seconds\": " + number(cfg.seconds) +
          ", \"trace\": " + (cfg.trace ? "1" : "0") +
          ", \"smoke\": " + (cfg.smoke ? "true" : "false") +
          ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency()) +
          ", \"compiler\": ";
  append_json_string(info, GCSM_PERFBENCH_CXX_ID);
  info += ", \"build_type\": ";
  append_json_string(info, GCSM_PERFBENCH_BUILD_TYPE);
  info += std::string(", \"checks\": ") + (checks ? "true" : "false") +
          ", \"sanitizer\": \"" + sanitizer() + "\"" +
          ", \"valid\": " + (valid ? "true" : "false") +
          ", \"passes\": " + std::to_string(cfg.passes) +
          ", \"batches_per_pass\": " + std::to_string(cfg.batches_per_pass) +
          ", \"tail_samples\": " + std::to_string(lat.tail_samples) +
          ", \"tail_per_pass\": " + (lat.tail_per_pass ? "true" : "false") +
          ", \"pass_p50_ms\": [" + pass_p50s(passes) + "]" +
          ", \"tail_percentile\": " + number(lat.tail_percentile) +
          ", \"engine_busy_share\": " + number(ratio(busy_ms, span_ms)) +
          ", \"host_steal_share\": " + number(steal_share) +
          ", \"counts_digest\": \"" +
          std::to_string(counts_digest(passes.front().batches)) +
          "\", \"sim_digest\": \"" +
          std::to_string(sim_digest(passes.front().batches)) +
          "\", \"sim_pass_deviation\": " + number(sim_deviation(passes));
  if (!layer_note.empty()) info += ", " + layer_note;
  info += "}}";
  std::printf("%s\n", info.c_str());

  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checked.attempted) +
         ", \"failed\": " + std::to_string(checked.failed) +
         ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    append_json_string(out, metrics[i].name);
    out += ": {\"value\": " + number(metrics[i].value) + ", \"unit\": ";
    append_json_string(out, metrics[i].unit);
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcsm_perfbench: %s\n", e.what());
    return 1;
  }
}
