// The candidate kernel: the one multi-way sorted intersection that every
// matcher (MatchEngine, ShardedMatcher, FrequencyEstimator) runs per level.
//
// A level's candidates are the intersection of its constraint views. Each
// view is a NeighborView: a sorted prefix that may carry tombstones plus an
// appended run (graph/dynamic_graph.hpp). STMatch's GPU kernel merges
// neighbor lists where they lie; compute_candidates() does the same on the
// host:
//   * the first two operands are intersected view-to-view and only their
//     intersection is written; a level with one constraint copies its view;
//   * every later operand narrows that result in place;
//   * a "plain" view (one segment, no tombstone) is read where it lies.
//     Only multi-segment or tombstoned views, which exist for batch-touched
//     vertices alone, are decoded, once per worker (KernelScratch).
// A pairwise step runs a block merge (8x8 AVX2 where the CPU has it, a
// branch-free scalar merge otherwise) or gallops when one side is far
// shorter. The choice is automatic.
//
// The returned op count is what the simulated cost model prices, and it does
// not depend on which algorithm ran. It is the two-pointer rule in closed
// form (DESIGN.md, "Cost-invariant op accounting"):
//   ops = |op0| + Σ_k (|op_k| + step(acc, op_k)),
// summed over the operands k ≥ 1 pulled while the running set acc is
// non-empty, where for non-empty acc and op_k
//   merge   (|acc|·32 ≥ |op_k|): step = i_end + j_end − |acc ∩ op_k|, with
//           i_end, j_end the upper bounds of min(last(acc), last(op_k)) in
//           acc and op_k;
//   gallop  (|acc|·32 < |op_k|): step = 8 · min(|acc|, #{x ∈ acc :
//           x ≤ last(op_k)} + 1);
// and step = 0 when either side is empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"

namespace gcsm {

namespace detail {

// One operand of a pairwise step: a plain sorted run of live ids.
struct Operand {
  const VertexId* data = nullptr;
  std::size_t size = 0;
};

// The set-operation entry points one kernel instance runs
// (core/intersect_kernels.hpp names the scalar and AVX2 tables).
struct KernelTable {
  // True if any entry of [p, p+n) has its sign bit set (a tombstone).
  bool (*has_tombstone)(const VertexId* p, std::size_t n);
  // Writes a ∩ b to out and returns its size. out may alias a; otherwise it
  // must have room for na entries. Never reads outside [a, a+na) and
  // [b, b+nb).
  std::size_t (*merge)(const VertexId* a, std::size_t na, const VertexId* b,
                       std::size_t nb, VertexId* out);
};

// The table for this CPU, chosen once per process.
const KernelTable& dispatched_kernels();

// out = a ∩ b for non-empty a. Returns the charged ops |b| + step(a, b).
std::uint64_t intersect_first(Operand a, Operand b,
                              std::vector<VertexId>& out,
                              const KernelTable& kernels);

// acc = acc ∩ b in place for non-empty acc. Returns |b| + step(acc, b).
std::uint64_t intersect_next(std::vector<VertexId>& acc, Operand b,
                             const KernelTable& kernels);

}  // namespace detail

// Per-worker kernel scratch: decoded copies of the non-plain views
// (multi-segment or tombstoned) met while it lives. A launch's views are
// immutable while it runs, so a decoded copy is keyed by the view's storage
// and reused: the hub lists a batch touched are decoded once per worker,
// not once per use. So a scratch must not outlive the launch (or estimate)
// whose views it has seen.
class KernelScratch {
 public:
  // The view as a plain run of live ids: the view itself when plain, else
  // its decoded copy. The first operand of a level stays valid while the
  // second is resolved; any other operand, until the next call.
  detail::Operand operand(const NeighborView& view, bool first,
                          const detail::KernelTable& kernels);

 private:
  struct Decoded {
    NeighborView view;  // the key: storage, sizes and mode
    std::vector<VertexId> ids;
  };
  static constexpr std::size_t kSlots = 64;

  std::vector<Decoded> slots_;  // direct-mapped by storage address
  std::size_t first_slot_ = kSlots;  // the slot the first operand reads
  std::vector<VertexId> spill_;  // a second operand colliding with it
};

// out = view_of(0) ∩ ... ∩ view_of(num_views - 1), num_views ≥ 1. Operands
// are pulled in order and only while the running set is non-empty, so a
// policy fetch (and its traffic charge) happens exactly for the operands
// the result depends on. Returns the charged ops (rule above).
template <class ViewOf>
std::uint64_t compute_candidates(
    std::size_t num_views, ViewOf&& view_of, std::vector<VertexId>& out,
    KernelScratch& scratch,
    const detail::KernelTable& kernels = detail::dispatched_kernels()) {
  const detail::Operand first =
      scratch.operand(view_of(std::size_t{0}), true, kernels);
  std::uint64_t ops = first.size;
  if (num_views == 1 || first.size == 0) {
    out.assign(first.data, first.data + first.size);
    return ops;
  }
  ops += detail::intersect_first(
      first, scratch.operand(view_of(std::size_t{1}), false, kernels), out,
      kernels);
  for (std::size_t i = 2; i < num_views && !out.empty(); ++i) {
    ops += detail::intersect_next(
        out, scratch.operand(view_of(i), false, kernels), kernels);
  }
  return ops;
}

}  // namespace gcsm
