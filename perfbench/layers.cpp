// Per-layer self time from the traced passes' spans.
//
// Spans on one thread nest (they are RAII scopes), so each span's self time
// is its interval minus its children's. The driver thread's engine-call
// spans (process_batch / process_stream) bound the traced batch wall; every
// instant inside them is credited to exactly one layer:
//   * a phase span's self time goes to its layer (update, estimate, pack,
//     match, reorg);
//   * self time of the engine's batch span is transaction overhead (txn),
//     and self time of the bench call span is unattributed — except where
//     another thread runs a phase span at that instant, in which case the
//     driver is waiting on that phase and the instant goes to it (match
//     first, then estimate, pack, update, reorg);
//   * phases an engine times without a span (the sharded engine's estimate
//     and match) are carved out of the unattributed remainder.
// So attributed layers plus the unattributed remainder equal the wall.
#include <algorithm>
#include <array>
#include <string_view>

#include "bench.hpp"

namespace perfbench {
namespace {

using gcsm::trace::TraceEvent;

enum class Layer {
  kBench,
  kPipeline,
  kUpdate,
  kEstimate,
  kPack,
  kMatch,
  kReorg,
  kOther,
};

// Phases a waiting driver can be blocked on, in credit order.
constexpr std::array<Layer, 5> kPhasePriority = {
    Layer::kMatch, Layer::kEstimate, Layer::kPack, Layer::kUpdate,
    Layer::kReorg};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

Layer classify(std::string_view name) {
  if (name.starts_with("bench.")) return Layer::kBench;
  if (ends_with(name, "pipeline.batch")) return Layer::kPipeline;
  if (ends_with(name, "pipeline.update")) return Layer::kUpdate;
  if (ends_with(name, "pipeline.estimate")) return Layer::kEstimate;
  if (ends_with(name, "pipeline.pack") || name == "cache.build") {
    return Layer::kPack;
  }
  if (ends_with(name, "pipeline.match")) return Layer::kMatch;
  if (ends_with(name, "pipeline.reorg")) return Layer::kReorg;
  return Layer::kOther;
}

bool is_engine_call(std::string_view name) {
  return name == kSpanProcessBatch || name == kSpanProcessStream;
}

// A per-query match span ("q<id>.pipeline.match").
bool is_query_match(std::string_view name) {
  return name.size() > 1 && name[0] == 'q' && name[1] >= '0' &&
         name[1] <= '9' && ends_with(name, "pipeline.match");
}

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};
using Intervals = std::vector<Interval>;

double length(const Intervals& xs) {
  double sum = 0.0;
  for (const Interval& x : xs) sum += x.hi - x.lo;
  return sum;
}

// Sorted, disjoint union.
Intervals normalize(Intervals xs) {
  std::sort(xs.begin(), xs.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  Intervals out;
  for (const Interval& x : xs) {
    if (x.hi <= x.lo) continue;
    if (!out.empty() && x.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, x.hi);
    } else {
      out.push_back(x);
    }
  }
  return out;
}

// a \ b, both normalized.
Intervals subtract(const Intervals& a, const Intervals& b) {
  Intervals out;
  std::size_t j = 0;
  for (Interval x : a) {
    while (j < b.size() && b[j].hi <= x.lo) ++j;
    for (std::size_t k = j; k < b.size() && b[k].lo < x.hi; ++k) {
      if (b[k].lo > x.lo) out.push_back({x.lo, b[k].lo});
      x.lo = std::max(x.lo, b[k].hi);
      if (x.lo >= x.hi) break;
    }
    if (x.lo < x.hi) out.push_back(x);
  }
  return out;
}

struct Node {
  const TraceEvent* ev = nullptr;
  Layer layer = Layer::kOther;
  Intervals children;
  bool in_call = false;  // inside an engine-call span
};

double& slot(LayerTimes& t, Layer layer) {
  switch (layer) {
    case Layer::kMatch:
      return t.match_ms;
    case Layer::kEstimate:
      return t.estimate_ms;
    case Layer::kPack:
      return t.pack_ms;
    case Layer::kUpdate:
      return t.update_ms;
    case Layer::kReorg:
      return t.reorg_ms;
    case Layer::kPipeline:
      return t.txn_ms;
    default:
      return t.unattributed_ms;
  }
}

}  // namespace

LayerTimes attribute_layers(const std::vector<TraceEvent>& events,
                            double spanless_estimate_ms,
                            double spanless_match_ms) {
  LayerTimes out;
  std::uint64_t driver_tid = 0;
  bool have_driver = false;
  for (const TraceEvent& ev : events) {
    if (is_engine_call(ev.name)) {
      driver_tid = ev.tid;
      have_driver = true;
      break;
    }
  }
  if (!have_driver) return out;

  // Off-thread phase coverage, per layer.
  std::array<Intervals, 8> off_thread;
  std::vector<const TraceEvent*> driver;
  for (const TraceEvent& ev : events) {
    if (is_query_match(ev.name)) out.query_match_ms += ev.dur_us / 1e3;
    // Phase spans have no children, so their duration is their work.
    const Layer phase = classify(ev.name);
    if (phase == Layer::kMatch) out.match_work_ms += ev.dur_us / 1e3;
    if (phase == Layer::kEstimate) out.estimate_work_ms += ev.dur_us / 1e3;
    if (ev.tid != driver_tid) {
      const Layer layer = classify(ev.name);
      off_thread[static_cast<int>(layer)].push_back(
          {ev.ts_us, ev.ts_us + ev.dur_us});
      continue;
    }
    // The queue-wait span starts at a batch's due time, which can fall
    // inside an earlier call; it is reported on its own, not nested.
    if (ev.name == kSpanQueueWait) continue;
    driver.push_back(&ev);
  }
  for (Intervals& xs : off_thread) xs = normalize(std::move(xs));

  // Rebuild the nesting on the driver thread: parents sort before their
  // children (earlier start, or equal start and longer).
  std::sort(driver.begin(), driver.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->dur_us > b->dur_us;
            });
  std::vector<Node> nodes(driver.size());
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < driver.size(); ++i) {
    const TraceEvent& ev = *driver[i];
    const double end = ev.ts_us + ev.dur_us;
    while (!stack.empty()) {
      const TraceEvent& top = *nodes[stack.back()].ev;
      if (ev.ts_us >= top.ts_us + top.dur_us) {
        stack.pop_back();
      } else {
        break;
      }
    }
    Node& n = nodes[i];
    n.ev = &ev;
    n.layer = classify(ev.name);
    if (!stack.empty()) {
      Node& parent = nodes[stack.back()];
      parent.children.push_back({ev.ts_us, end});
      n.in_call = parent.in_call || is_engine_call(parent.ev->name);
    }
    stack.push_back(i);
  }

  for (Node& n : nodes) {
    const TraceEvent& ev = *n.ev;
    const bool call = is_engine_call(ev.name);
    if (call) {
      out.batch_wall_ms += ev.dur_us / 1e3;
      if (ev.name == kSpanProcessStream) out.stream_ms += ev.dur_us / 1e3;
    }
    if (!call && !n.in_call) continue;  // setup, checks
    if (n.layer == Layer::kPipeline) out.pipeline_batch_ms += ev.dur_us / 1e3;

    Intervals self = subtract(normalize({{ev.ts_us, ev.ts_us + ev.dur_us}}),
                              normalize(std::move(n.children)));
    if (n.layer == Layer::kPipeline || n.layer == Layer::kBench ||
        n.layer == Layer::kOther) {
      for (const Layer waited : kPhasePriority) {
        const Intervals& cover = off_thread[static_cast<int>(waited)];
        if (cover.empty()) continue;
        Intervals rest = subtract(self, cover);
        slot(out, waited) += (length(self) - length(rest)) / 1e3;
        self = std::move(rest);
      }
    }
    slot(out, n.layer) += length(self) / 1e3;
  }

  // Phases timed by the engine's report but not by a span ran on the driver
  // thread inside the call, i.e. inside the unattributed remainder.
  out.match_work_ms += spanless_match_ms;
  out.estimate_work_ms += spanless_estimate_ms;
  const double est = std::min(spanless_estimate_ms, out.unattributed_ms);
  out.estimate_ms += est;
  out.unattributed_ms -= est;
  const double match = std::min(spanless_match_ms, out.unattributed_ms);
  out.match_ms += match;
  out.unattributed_ms -= match;
  return out;
}

}  // namespace perfbench
