// Differential tests of the candidate kernel (core/intersect.hpp) against
// the reference it replaced: decode every operand with materialize_view,
// then narrow the running set with a scalar two-pointer merge that gallops
// when |acc|·32 < |b|. Every trial must give the same candidate set AND the
// same charged op count, because the simulated cost model prices those ops.
// The scalar and AVX2 entry points are called directly through
// core/intersect_kernels.hpp; views live in exactly-sized heap arrays so
// that the asan-ubsan build flags any read past a segment end.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/intersect.hpp"
#include "core/intersect_kernels.hpp"
#include "core/list_ref.hpp"
#include "util/rng.hpp"

namespace gcsm {
namespace {

using detail::KernelTable;

// ------------------------------------------------------------ reference ----

std::size_t ref_gallop(const VertexId* data, std::size_t n, std::size_t from,
                       VertexId target) {
  std::size_t step = 1;
  std::size_t hi = from;
  while (hi < n && data[hi] < target) {
    hi += step;
    step *= 2;
  }
  const std::size_t lo = hi >= step ? hi - step : 0;
  const VertexId* it = std::lower_bound(data + std::min(lo, n),
                                        data + std::min(hi, n), target);
  return static_cast<std::size_t>(it - data);
}

std::uint64_t ref_intersect_into(std::vector<VertexId>& acc,
                                 const VertexId* b, std::size_t nb) {
  if (acc.empty()) return 0;
  if (nb == 0) {
    acc.clear();
    return 0;
  }
  std::uint64_t ops = 0;
  std::size_t w = 0;
  if (acc.size() * 32 < nb) {
    std::size_t pos = 0;
    for (const VertexId x : acc) {
      pos = ref_gallop(b, nb, pos, x);
      ops += 8;
      if (pos == nb) break;
      if (b[pos] == x) acc[w++] = x;
    }
  } else {
    std::size_t j = 0;
    for (std::size_t i = 0; i < acc.size() && j < nb;) {
      ++ops;
      if (acc[i] < b[j]) {
        ++i;
      } else if (b[j] < acc[i]) {
        ++j;
      } else {
        acc[w++] = acc[i];
        ++i;
        ++j;
      }
    }
  }
  acc.resize(w);
  return ops;
}

struct LevelResult {
  std::vector<VertexId> ids;
  std::uint64_t ops = 0;
  std::size_t pulled = 0;  // operands fetched
};

LevelResult reference_level(const std::vector<NeighborView>& views) {
  LevelResult r;
  materialize_view(views[0], r.ids);
  r.ops += r.ids.size();
  r.pulled = 1;
  std::vector<VertexId> tmp;
  for (std::size_t i = 1; i < views.size() && !r.ids.empty(); ++i) {
    ++r.pulled;
    tmp.clear();
    materialize_view(views[i], tmp);
    r.ops += tmp.size();
    r.ops += ref_intersect_into(r.ids, tmp.data(), tmp.size());
  }
  return r;
}

LevelResult kernel_level(const std::vector<NeighborView>& views,
                         const KernelTable& kernels) {
  LevelResult r;
  std::vector<VertexId> out{99, 98};  // stale content must not leak through
  KernelScratch scratch;
  r.ops = compute_candidates(
      views.size(),
      [&](std::size_t i) {
        EXPECT_EQ(i, r.pulled) << "operands must be pulled in order";
        ++r.pulled;
        return views[i];
      },
      out, scratch, kernels);
  r.ids = out;
  return r;
}

// The entry points under test: scalar everywhere, AVX2 where the CPU has
// it (a test that needs AVX2 on a CPU without it covers the scalar table
// only, and says so).
std::vector<std::pair<std::string, const KernelTable*>> tables() {
  std::vector<std::pair<std::string, const KernelTable*>> t{
      {"scalar", &detail::kScalarKernels}};
  if (detail::cpu_has_avx2()) {
    t.emplace_back("avx2", &detail::kAvx2Kernels);
  } else {
    std::cout << "[  NOTE    ] CPU lacks AVX2; AVX2 entry points untested\n";
  }
  return t;
}

// ---------------------------------------------------------- view builder ---

// One view over exactly-sized heap arrays.
struct StoredView {
  std::unique_ptr<VertexId[]> prefix;
  std::unique_ptr<VertexId[]> appended;
  NeighborView view;
};

std::unique_ptr<VertexId[]> exact_copy(const std::vector<VertexId>& v) {
  auto p = std::make_unique<VertexId[]>(v.size());
  std::copy(v.begin(), v.end(), p.get());
  return p;
}

// `prefix_ids` ascending: entries are tombstoned with probability
// `tombstone_p`. `appended_ids` (kNew only) ascending, disjoint from the
// live prefix entries — a tombstoned id may come back, as when an edge is
// deleted and re-inserted.
StoredView store_view(Rng& rng, const std::vector<VertexId>& prefix_ids,
                      double tombstone_p,
                      const std::vector<VertexId>& appended_ids,
                      ViewMode mode) {
  std::vector<VertexId> prefix = prefix_ids;
  std::set<VertexId> dead;
  for (VertexId& x : prefix) {
    if (rng.bernoulli(tombstone_p)) {
      dead.insert(x);
      x = tombstone(x);
    }
  }
  const std::set<VertexId> live_prefix = [&] {
    std::set<VertexId> s;
    for (const VertexId x : prefix_ids) {
      if (dead.count(x) == 0) s.insert(x);
    }
    return s;
  }();
  std::vector<VertexId> appended;
  if (mode == ViewMode::kNew) {
    for (const VertexId x : appended_ids) {
      if (live_prefix.count(x) == 0) appended.push_back(x);
    }
  }
  StoredView s;
  s.prefix = exact_copy(prefix);
  s.appended = exact_copy(appended);
  s.view.mode = mode;
  s.view.prefix = {s.prefix.get(), static_cast<std::uint32_t>(prefix.size())};
  s.view.appended = {s.appended.get(),
                     static_cast<std::uint32_t>(appended.size())};
  return s;
}

StoredView plain(const std::vector<VertexId>& ids) {
  Rng unused(0);
  return store_view(unused, ids, 0.0, {}, ViewMode::kNew);
}

// `n` distinct ids drawn from [0, universe), ascending (n clamped).
std::vector<VertexId> sorted_ids(Rng& rng, std::size_t n, VertexId universe) {
  n = std::min<std::size_t>(n, static_cast<std::size_t>(universe));
  std::set<VertexId> s;
  while (s.size() < n) s.insert(static_cast<VertexId>(rng.bounded(universe)));
  return {s.begin(), s.end()};
}

// Each id of `base` kept with probability `keep`.
std::vector<VertexId> thin(Rng& rng, const std::vector<VertexId>& base,
                           double keep) {
  std::vector<VertexId> out;
  for (const VertexId x : base) {
    if (rng.bernoulli(keep)) out.push_back(x);
  }
  return out;
}

// Lengths around the 8-lane blocks, the 32x gallop threshold, and a hub.
constexpr std::size_t kLengths[] = {0,  1,  2,   3,   7,   8,   9,   15,
                                    16, 17, 23,  24,  25,  31,  32,  33,
                                    63, 64, 65,  127, 128, 129, 255, 256,
                                    257, 511, 1000, 4000};

std::vector<NeighborView> views_of(const std::vector<StoredView>& stored) {
  std::vector<NeighborView> v;
  for (const StoredView& s : stored) v.push_back(s.view);
  return v;
}

void expect_same(const std::vector<NeighborView>& views,
                 const std::string& ctx) {
  const LevelResult want = reference_level(views);
  for (const auto& [name, kernels] : tables()) {
    const LevelResult got = kernel_level(views, *kernels);
    ASSERT_EQ(got.ids, want.ids) << ctx << " [" << name << "]";
    ASSERT_EQ(got.ops, want.ops) << ctx << " [" << name << "]";
    ASSERT_EQ(got.pulled, want.pulled) << ctx << " [" << name << "]";
  }
}

// ------------------------------------------------------------------ tests --

TEST(Kernel, RandomViewsMatchReference) {
  Rng rng(20261017);
  for (int trial = 0; trial < 1500; ++trial) {
    const std::size_t num_views = 1 + rng.bounded(4);
    const std::size_t hub = kLengths[rng.bounded(std::size(kLengths))];
    // Dense trials thin one shared base set, so most entries match and the
    // in-place writer runs right behind the reader; sparse trials draw
    // every list independently from a wide universe.
    const bool dense = rng.bernoulli(0.5);
    const auto universe = static_cast<VertexId>(
        dense ? std::max<std::size_t>(hub, 8) + rng.bounded(16)
              : 4 * std::max<std::size_t>(hub, 8) + rng.bounded(1 << 12));
    std::vector<VertexId> base(static_cast<std::size_t>(universe));
    for (std::size_t i = 0; i < base.size(); ++i) {
      base[i] = static_cast<VertexId>(i);
    }
    std::vector<StoredView> stored;
    for (std::size_t v = 0; v < num_views; ++v) {
      const std::size_t len = kLengths[rng.bounded(std::size(kLengths))];
      std::vector<VertexId> ids =
          dense ? thin(rng, base, 0.5 + 0.5 * rng.uniform())
                : sorted_ids(rng, len, universe);
      const ViewMode mode =
          rng.bernoulli(0.5) ? ViewMode::kOld : ViewMode::kNew;
      const double tomb = rng.bernoulli(0.5) ? 0.0 : 0.3 * rng.uniform();
      std::vector<VertexId> app;
      if (mode == ViewMode::kNew && rng.bernoulli(0.4)) {
        app = sorted_ids(rng, kLengths[rng.bounded(12)], universe);
      }
      stored.push_back(store_view(rng, ids, tomb, app, mode));
    }
    expect_same(views_of(stored), "trial " + std::to_string(trial));
  }
}

TEST(Kernel, ScratchReusedAcrossLevelsMatchesReference) {
  // One scratch serves many levels, as a worker's does for a whole launch:
  // its decoded copies are keyed by view storage, so a pool of views larger
  // than its slots forces collisions, and every storage is also viewed in
  // the other mode and with a shorter prefix (distinct keys, same address).
  Rng rng(5);
  std::vector<StoredView> pool;
  for (int v = 0; v < 160; ++v) {
    const std::size_t len = kLengths[4 + rng.bounded(std::size(kLengths) - 5)];
    const ViewMode mode = rng.bernoulli(0.5) ? ViewMode::kOld : ViewMode::kNew;
    std::vector<VertexId> app;
    if (mode == ViewMode::kNew) {
      app = sorted_ids(rng, 1 + rng.bounded(30), 2048);
    }
    pool.push_back(
        store_view(rng, sorted_ids(rng, len, 2048), 0.2, app, mode));
  }
  std::vector<NeighborView> views;
  for (const StoredView& s : pool) {
    views.push_back(s.view);
    NeighborView other = s.view;
    other.mode =
        s.view.mode == ViewMode::kOld ? ViewMode::kNew : ViewMode::kOld;
    if (other.mode == ViewMode::kOld) other.appended = {};
    views.push_back(other);
    NeighborView shorter = s.view;
    shorter.prefix.size /= 2;
    views.push_back(shorter);
  }
  for (const auto& [name, kernels] : tables()) {
    KernelScratch scratch;
    std::vector<VertexId> out;
    for (int level = 0; level < 4000; ++level) {
      std::vector<NeighborView> operands;
      const std::size_t n = 1 + rng.bounded(4);
      for (std::size_t i = 0; i < n; ++i) {
        operands.push_back(views[rng.bounded(views.size())]);
      }
      const LevelResult want = reference_level(operands);
      const std::uint64_t ops = compute_candidates(
          operands.size(), [&](std::size_t i) { return operands[i]; }, out,
          scratch, *kernels);
      ASSERT_EQ(out, want.ids)
          << name << " level " << level;
      ASSERT_EQ(ops, want.ops) << name << " level " << level;
    }
  }
}

TEST(Kernel, GallopThresholdStraddles) {
  // |acc|·32 against |b| at -1/0/+1, for the first pair and for a later
  // (in-place) operand, with acc entries spread over b's range or past it.
  Rng rng(7);
  for (const std::size_t na : {1u, 2u, 3u, 8u, 9u}) {
    for (const std::size_t nb : {32 * na - 1, 32 * na, 32 * na + 1}) {
      for (const VertexId span : {VertexId{1}, VertexId{3}}) {
        const auto universe = static_cast<VertexId>(nb) * span;
        const std::vector<VertexId> b = sorted_ids(rng, nb, universe);
        const std::vector<VertexId> a =
            sorted_ids(rng, na, universe + static_cast<VertexId>(nb));
        std::vector<VertexId> all(static_cast<std::size_t>(universe) + nb);
        for (std::size_t i = 0; i < all.size(); ++i) {
          all[i] = static_cast<VertexId>(i);
        }
        const std::string ctx = "na=" + std::to_string(na) +
                                " nb=" + std::to_string(nb) +
                                " span=" + std::to_string(span);
        std::vector<StoredView> first;
        first.push_back(plain(a));
        first.push_back(plain(b));
        expect_same(views_of(first), ctx + " first pair");
        std::vector<StoredView> later;
        later.push_back(plain(a));
        later.push_back(plain(all));
        later.push_back(plain(b));
        expect_same(views_of(later), ctx + " in place");
      }
    }
  }
}

TEST(Kernel, TombstonedAndAppendedViewsDecode) {
  // Fixed shapes: an all-tombstone prefix, an appended run re-adding
  // deleted ids, an appended-only view, and kOld decoding of tombstones.
  Rng rng(3);
  const std::vector<VertexId> ids{1, 4, 6, 9, 12, 15, 18, 21, 24, 27};
  std::vector<StoredView> stored;
  stored.push_back(store_view(rng, ids, 1.0, {4, 9, 30}, ViewMode::kNew));
  stored.push_back(store_view(rng, {}, 0.0, {4, 9, 12, 30}, ViewMode::kNew));
  stored.push_back(store_view(rng, ids, 1.0, {}, ViewMode::kOld));
  expect_same(views_of(stored), "fixed shapes");
  const LevelResult got =
      kernel_level(views_of(stored), detail::kScalarKernels);
  EXPECT_EQ(got.ids, (std::vector<VertexId>{4, 9}));
}

TEST(Kernel, MergeEntryPointsInPlaceAndOutOfPlace) {
  Rng rng(11);
  for (const auto& [name, kernels] : tables()) {
    for (int trial = 0; trial < 3000; ++trial) {
      const std::size_t na = kLengths[rng.bounded(std::size(kLengths) - 1)];
      const std::size_t nb = kLengths[rng.bounded(std::size(kLengths) - 1)];
      const auto universe = static_cast<VertexId>(
          std::max(na, nb) + 1 + rng.bounded(rng.bernoulli(0.5) ? 8 : 4096));
      const std::vector<VertexId> a = sorted_ids(rng, na, universe);
      const std::vector<VertexId> b = sorted_ids(rng, nb, universe);
      std::vector<VertexId> expect;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(expect));
      const auto ea = exact_copy(a);
      const auto eb = exact_copy(b);
      const std::string ctx = name + " trial " + std::to_string(trial);

      // Out of place: out has room for exactly |a| entries.
      const auto out = std::make_unique<VertexId[]>(a.size());
      const std::size_t n =
          kernels->merge(ea.get(), a.size(), eb.get(), b.size(), out.get());
      ASSERT_EQ(std::vector<VertexId>(out.get(), out.get() + n), expect)
          << ctx << " out of place";

      // In place: out aliases a.
      const auto inplace = exact_copy(a);
      const std::size_t m = kernels->merge(inplace.get(), a.size(), eb.get(),
                                           b.size(), inplace.get());
      ASSERT_EQ(std::vector<VertexId>(inplace.get(), inplace.get() + m),
                expect)
          << ctx << " in place";
    }
  }
}

TEST(Kernel, TombstoneScanEntryPoints) {
  for (const auto& [name, kernels] : tables()) {
    for (std::size_t n = 0; n <= 40; ++n) {
      std::vector<VertexId> ids(n);
      for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<VertexId>(i);
      EXPECT_FALSE(kernels->has_tombstone(exact_copy(ids).get(), n))
          << name << " n=" << n;
      for (std::size_t t = 0; t < n; ++t) {
        std::vector<VertexId> with = ids;
        with[t] = tombstone(with[t]);
        EXPECT_TRUE(kernels->has_tombstone(exact_copy(with).get(), n))
            << name << " n=" << n << " tombstone at " << t;
      }
    }
  }
}

TEST(Kernel, DispatchPicksAvx2ExactlyWhenTheCpuHasIt) {
  const KernelTable& d = detail::dispatched_kernels();
  const KernelTable& want =
      detail::cpu_has_avx2() ? detail::kAvx2Kernels : detail::kScalarKernels;
  EXPECT_EQ(d.merge, want.merge);
  EXPECT_EQ(d.has_tombstone, want.has_tombstone);
}

}  // namespace
}  // namespace gcsm
