#include "core/intersect.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/intersect_kernels.hpp"
#include "core/list_ref.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define GCSM_KERNEL_X86 1
#else
#define GCSM_KERNEL_X86 0
#endif

namespace gcsm::detail {
namespace {

// The charged-ops rule's gallop threshold (DESIGN.md, "Cost-invariant op
// accounting"); it holds whichever algorithm actually runs.
constexpr std::size_t kChargedGallopRatio = 32;
// The host's own choice: gallop when either side is this many times shorter.
constexpr std::size_t kGallopRatio = 32;

// First index in [from, n) whose entry is >= target, n if none. Reads only
// [from, n), so an in-place writer trailing behind `from` never disturbs it.
std::size_t gallop_from(const VertexId* d, std::size_t n, std::size_t from,
                        VertexId target) {
  if (from >= n || d[from] >= target) return from;
  std::size_t lo = from;  // d[lo] < target
  std::size_t step = 1;
  while (lo + step < n && d[lo + step] < target) {
    lo += step;
    step *= 2;
  }
  const std::size_t hi = std::min(lo + step, n);
  return static_cast<std::size_t>(
      std::lower_bound(d + lo + 1, d + hi, target) - d);
}

// out = small ∩ big, galloping through `big`. out may alias either input:
// the w-th match is written at or before the position it was read from.
std::size_t gallop_intersect(const VertexId* small, std::size_t ns,
                             const VertexId* big, std::size_t nbig,
                             VertexId* out) {
  std::size_t w = 0;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < ns; ++i) {
    const VertexId x = small[i];
    pos = gallop_from(big, nbig, pos, x);
    if (pos == nbig) break;
    if (big[pos] == x) {
      out[w++] = x;
      ++pos;
    }
  }
  return w;
}

bool has_tombstone_scalar(const VertexId* p, std::size_t n) {
  VertexId bits = 0;
  for (std::size_t i = 0; i < n; ++i) bits |= p[i];
  return bits < 0;
}

// Branch-free two-pointer merge. Writes out[w] with w <= i on every step,
// so out may alias a.
std::size_t merge_scalar(const VertexId* a, std::size_t na, const VertexId* b,
                         std::size_t nb, VertexId* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t w = 0;
  while (i < na && j < nb) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    out[w] = x;
    w += static_cast<std::size_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  return w;
}

#if GCSM_KERNEL_X86

// Lane permutation packing the set lanes of an 8-bit mask to the front.
struct CompressTable {
  alignas(32) std::int32_t lanes[256][8];
};

constexpr CompressTable make_compress_table() {
  CompressTable t{};
  for (int mask = 0; mask < 256; ++mask) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (((mask >> lane) & 1) != 0) t.lanes[mask][k++] = lane;
    }
  }
  return t;
}

constexpr CompressTable kCompress = make_compress_table();

__attribute__((target("avx2"))) __m256i load8(const VertexId* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) bool has_tombstone_avx2(const VertexId* p,
                                                        std::size_t n) {
  __m256i bits = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) bits = _mm256_or_si256(bits, load8(p + i));
  VertexId tail = 0;
  for (; i < n; ++i) tail |= p[i];
  return _mm256_movemask_ps(_mm256_castsi256_ps(bits)) != 0 || tail < 0;
}

// Bit l set iff lane l of va equals some lane of vb: each 128-bit half of
// va meets the four in-half rotations of vb, then of vb's halves swapped.
__attribute__((target("avx2"))) unsigned block_matches(__m256i va,
                                                       __m256i vb) {
  const __m256i vs = _mm256_permute2x128_si256(vb, vb, 1);
  const __m256i m0 = _mm256_or_si256(
      _mm256_or_si256(_mm256_cmpeq_epi32(va, vb),
                      _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(vb, 0x39))),
      _mm256_or_si256(_mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(vb, 0x4E)),
                      _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(vb, 0x93))));
  const __m256i m1 = _mm256_or_si256(
      _mm256_or_si256(_mm256_cmpeq_epi32(va, vs),
                      _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(vs, 0x39))),
      _mm256_or_si256(_mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(vs, 0x4E)),
                      _mm256_cmpeq_epi32(va, _mm256_shuffle_epi32(vs, 0x93))));
  return static_cast<unsigned>(
      _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_or_si256(m0, m1))));
}

// 8x8 block merge, branch-free in its steady state. The resident a block
// lives in `va` and collects its matches in `pending` across b blocks. Every
// step stores the packed matches at out+w, but advances w only when the
// block retires. Since w never exceeds i, the store stays inside the
// resident block's own slots. With out aliasing a it can clobber the
// resident block's memory, never an a entry not yet loaded, so the block is
// only ever read back from its register copy. Loads stay inside [a, a+na)
// and [b, b+nb): a block is loaded only when all 8 of its entries exist.
__attribute__((target("avx2"))) std::size_t merge_avx2(const VertexId* a,
                                                       std::size_t na,
                                                       const VertexId* b,
                                                       std::size_t nb,
                                                       VertexId* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t w = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = load8(a);
    VertexId a_max = a[7];
    unsigned pending = 0;
    bool retired = false;
    for (;;) {
      const VertexId b_max = b[j + 7];
      pending |= block_matches(va, load8(b + j));
      retired = a_max <= b_max;
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kCompress.lanes[pending]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w),
                          _mm256_permutevar8x32_epi32(va, perm));
      w += retired ? static_cast<std::size_t>(std::popcount(pending)) : 0;
      pending = retired ? 0 : pending;
      i += retired ? 8 : 0;
      j += b_max <= a_max ? 8 : 0;
      if (i + 8 > na || j + 8 > nb) break;
      // The next a block is read either way and kept only on retirement.
      const __m256i keep = _mm256_set1_epi32(retired ? -1 : 0);
      va = _mm256_blendv_epi8(va, load8(a + i), keep);
      a_max = retired ? a[i + 7] : a_max;
    }
    if (!retired) {
      // b ran out of whole blocks under a resident block: finish its lanes
      // from the register copy against the < 8 b entries left. The writes
      // land on the block's own slots.
      alignas(32) VertexId lanes[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), va);
      for (unsigned l = 0; l < 8; ++l) {
        const VertexId x = lanes[l];
        if (((pending >> l) & 1u) != 0) {
          out[w++] = x;
          continue;
        }
        while (j < nb && b[j] < x) ++j;
        if (j < nb && b[j] == x) {
          out[w++] = x;
          ++j;
        }
      }
      i += 8;
    }
  }
  // The scalar tail starts at i >= w, so it may still write in place.
  return w + merge_scalar(a + i, na - i, b + j, nb - j, out + w);
}

#endif  // GCSM_KERNEL_X86

// One pairwise step: writes a ∩ b to out (which may alias a.data) and
// returns its size; `step` receives the charged step cost, computed from
// a's entries before an in-place write can overwrite them.
std::size_t pair_step(Operand a, Operand b, VertexId* out,
                      const KernelTable& kernels, std::uint64_t& step) {
  step = 0;
  if (a.size == 0 || b.size == 0) return 0;
  const VertexId a_last = a.data[a.size - 1];
  const VertexId b_last = b.data[b.size - 1];
  auto upper = [](Operand s, VertexId x) {
    return static_cast<std::size_t>(
        std::upper_bound(s.data, s.data + s.size, x) - s.data);
  };
  const std::size_t i_end = a_last <= b_last ? a.size : upper(a, b_last);
  const bool charged_gallop = a.size * kChargedGallopRatio < b.size;
  std::size_t cursors = 0;
  if (charged_gallop) {
    step = 8 * static_cast<std::uint64_t>(std::min(a.size, i_end + 1));
  } else {
    cursors = i_end + (b_last <= a_last ? b.size : upper(b, a_last));
  }

  std::size_t n = 0;
  if (a.size * kGallopRatio < b.size) {
    n = gallop_intersect(a.data, a.size, b.data, b.size, out);
  } else if (b.size * kGallopRatio < a.size) {
    n = gallop_intersect(b.data, b.size, a.data, a.size, out);
  } else {
    n = kernels.merge(a.data, a.size, b.data, b.size, out);
  }
  if (!charged_gallop) step = cursors - n;
  return n;
}

}  // namespace

const KernelTable kScalarKernels{has_tombstone_scalar, merge_scalar};

#if GCSM_KERNEL_X86
const KernelTable kAvx2Kernels{has_tombstone_avx2, merge_avx2};

bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}
#else
const KernelTable kAvx2Kernels = kScalarKernels;

bool cpu_has_avx2() { return false; }
#endif

const KernelTable& dispatched_kernels() {
  static const KernelTable& table =
      cpu_has_avx2() ? kAvx2Kernels : kScalarKernels;
  return table;
}

std::uint64_t intersect_first(Operand a, Operand b,
                              std::vector<VertexId>& out,
                              const KernelTable& kernels) {
  out.clear();
  out.resize(a.size);
  std::uint64_t step = 0;
  out.resize(pair_step(a, b, out.data(), kernels, step));
  return b.size + step;
}

std::uint64_t intersect_next(std::vector<VertexId>& acc, Operand b,
                             const KernelTable& kernels) {
  std::uint64_t step = 0;
  acc.resize(pair_step({acc.data(), acc.size()}, b, acc.data(), kernels,
                       step));
  return b.size + step;
}

}  // namespace gcsm::detail

namespace gcsm {

detail::Operand KernelScratch::operand(const NeighborView& view, bool first,
                                       const detail::KernelTable& kernels) {
  const NeighborSeg& p = view.prefix;
  const NeighborSeg& q = view.appended;  // always empty in kOld
  if (first) first_slot_ = kSlots;
  if (q.size == 0) {
    if (!kernels.has_tombstone(p.data, p.size)) return {p.data, p.size};
  } else if (p.size == 0) {
    return {q.data, q.size};  // appended runs never hold tombstones
  }
  // A non-plain view always has a non-empty prefix: hash its address.
  const auto addr = reinterpret_cast<std::uintptr_t>(p.data);
  const std::size_t slot =
      ((addr * 0x9E3779B97F4A7C15ull) >> 58) ^
      static_cast<std::size_t>(view.mode == ViewMode::kOld);
  static_assert(kSlots == 64, "the hash keeps the top 6 bits");
  if (slots_.empty()) slots_.resize(kSlots);
  Decoded& d = slots_[slot];
  const bool hit = d.view.prefix.data == p.data &&
                   d.view.prefix.size == p.size &&
                   d.view.appended.data == q.data &&
                   d.view.appended.size == q.size && d.view.mode == view.mode;
  if (hit) {
    if (first) first_slot_ = slot;
    return {d.ids.data(), d.ids.size()};
  }
  if (slot == first_slot_) {
    // The first operand reads this slot: decode beside it instead.
    spill_.clear();
    materialize_view(view, spill_);
    return {spill_.data(), spill_.size()};
  }
  d.view = view;
  d.ids.clear();
  materialize_view(view, d.ids);
  if (first) first_slot_ = slot;
  return {d.ids.data(), d.ids.size()};
}

}  // namespace gcsm
