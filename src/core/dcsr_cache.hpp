// The GPU-side cache of frequent vertices (paper Sec. V-B).
//
// The neighbor lists of the selected vertices are packed in a Doubly
// Compressed Sparse Row (DCSR) blob with three arrays:
//   rowidx — the selected vertex ids, ascending (binary-searched by the
//            GPU kernel before every list access, and charged as such);
//   rowptr — per selected vertex, TWO offsets into colidx: the start of the
//            original list and the start of the appended new neighbors
//            (-1 when the vertex gained none this batch); a final sentinel
//            entry holds the length of colidx;
//   colidx — the stored adjacency entries, copied verbatim after tombstoning
//            (step 3), so deleted neighbors stay marked and new neighbors
//            sit at the tail of each list.
//
// The arrays' sizes are known up front, so the blob is one host allocation
// and one DMA transaction, exactly as in the paper.
//
// The host finds a row without that search. Each epoch carries a host-side
// index, built at pack time in O(rows) time and memory and never part of
// the blob (so never charged):
//   first[b]     — lower_bound(rowidx, b << shift), for the smallest shift
//                  with (V >> shift) <= rows, V the graph's vertex count at
//                  pack time: a lookup scans one bucket;
//   steps[pos]   — the kernel's binary-search probe count when v's lower
//                  bound in rowidx is pos, pos in [0, rows]. The search only
//                  ever compares mid < pos, so the count is a function of
//                  (rows, pos) alone, equal for hits and misses; lookup()
//                  reports exactly what the search would have cost;
//   tombstones[i] — whether row i's prefix holds a tombstone, carried on
//                  the returned view (NeighborView::tombstones).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "graph/dynamic_graph.hpp"
#include "util/check.hpp"

namespace gcsm {

// Double-buffered (docs/MULTI_QUERY.md, "Pipelined schedule"): the ACTIVE
// epoch is what lookup()/validate() serve — the blob the in-flight match
// kernel reads — while build_staged() packs the NEXT batch's image into a
// second slot without disturbing it. publish() swaps the staged epoch in.
// The serial build() keeps its original single-epoch semantics (both slots
// cleared first), so single-query pipelines are unchanged.
class DcsrCache {
 public:
  DcsrCache() = default;

  // Packs the lists of `vertices` (any order; deduplicated and sorted
  // internally) from `graph` and DMA-transfers the blob into `device`
  // memory, charging `counters`. Vertices whose lists would overflow
  // `byte_budget` are dropped (least-priority last: callers pass vertices in
  // descending priority). Throws DeviceOomError only if even the empty blob
  // does not fit. Exception-safe: if the allocation, the DMA, or the armed
  // cache.build fault site throws, the cache is left cleared (empty and
  // valid), never half-built. Discards any staged epoch.
  void build(const DynamicGraph& graph,
             const std::vector<VertexId>& vertices,
             std::uint64_t byte_budget, gpusim::Device& device,
             gpusim::TrafficCounters& counters);

  // Packs the next epoch into the staged slot without touching the active
  // one, for an atomic publish() swap. Charged the full `byte_budget`: the
  // active epoch's last consumer has finished before the pack phase runs,
  // so only the allocate-then-swap transient double-occupies the device
  // (bounded by one epoch, until publish() frees the old blob).
  // Exception-safe: a throw leaves the ACTIVE epoch intact and the staged
  // slot empty.
  void build_staged(const DynamicGraph& graph,
                    const std::vector<VertexId>& vertices,
                    std::uint64_t byte_budget, gpusim::Device& device,
                    gpusim::TrafficCounters& counters);

  // Swaps the staged epoch in as active and frees the previous active blob.
  // No-op when nothing is staged.
  void publish();

  // Drops the staged epoch (roles changed, rollback); active is untouched.
  void discard_staged();

  bool has_staged() const { return staged_valid_; }
  std::uint32_t staged_num_cached() const { return staged_.row_count; }
  std::uint64_t staged_blob_bytes() const { return staged_.blob_bytes; }

  void clear();

  bool empty() const { return active_.row_count == 0; }
  std::uint32_t num_cached() const { return active_.row_count; }
  std::uint64_t blob_bytes() const { return active_.blob_bytes; }

  // Kernel-side lookup in the active epoch. Returns the cached view of v
  // (pointers into device memory) or nullopt on miss. `search_steps`
  // receives the probes the kernel's binary search on rowidx makes
  // (device-memory accounting); the host finds the row through the index
  // instead, in O(1) for an even spread of cached ids.
  std::optional<NeighborView> lookup(VertexId v, ViewMode mode,
                                     std::uint32_t& search_steps) const;

  // The active epoch's rowidx: the cached vertex ids, ascending.
  std::span<const VertexId> cached_ids() const {
    return {active_.rowidx, active_.row_count};
  }
  // The view of cached row `row` (< num_cached()) in the active epoch: what
  // lookup(cached_ids()[row], mode, ...) returns.
  NeighborView row_view(std::uint32_t row, ViewMode mode) const;

  // Checks the DCSR invariants (docs/ANALYSIS.md): rowidx strictly
  // ascending, rowptr offsets monotone and within the colidx extent, the
  // sentinel equal to the colidx length, new_begin either -1 or inside its
  // row, every row's segments sorted, the blob byte accounting exact, and
  // the host index in agreement with rowidx (bucket starts, probe counts,
  // per-row tombstone flags).
  // When `graph` is non-null (valid until the graph reorganizes under the
  // cache), additionally checks each cached list is a verbatim copy of the
  // graph's stored list. Throws CheckFailure on the first violation.
  void validate(const DynamicGraph* graph = nullptr) const;

 private:
  struct RowPtr {
    std::int64_t begin = 0;      // start of the list in colidx
    std::int64_t new_begin = 0;  // start of appended entries, or -1
  };

  // The host-side lookup index of one epoch (see the file comment). Empty
  // when the epoch has no rows.
  struct Index {
    VertexId id_bound = 0;  // V: the graph's vertex count at pack time
    std::uint32_t shift = 0;
    std::vector<std::uint32_t> first;     // (V >> shift) + 2 bucket starts
    std::vector<std::uint8_t> steps;      // rows + 1 probe counts
    std::vector<std::uint8_t> tombstones;  // rows flags

    // lower_bound(rowidx, v) for rowidx = `ids`.
    std::uint32_t position(const VertexId* ids, VertexId v) const;
  };

  // One cache epoch: a packed blob plus its typed array views.
  struct Slot {
    gpusim::DeviceBuffer blob;
    const VertexId* rowidx = nullptr;
    const RowPtr* rowptr = nullptr;  // row_count + 1 entries (sentinel)
    const VertexId* colidx = nullptr;
    std::uint32_t row_count = 0;
    std::uint64_t blob_bytes = 0;
    Index index;

    void reset() { *this = Slot(); }
    NeighborView view(std::uint32_t row, ViewMode mode) const;
  };

  // Builds the index of the `rows` ascending ids, ids[rows - 1] < id_bound,
  // with every tombstone flag clear (the pack sets them row by row).
  static Index build_index(const VertexId* ids, std::uint32_t rows,
                           VertexId id_bound);

  // Packs `vertices` into `slot` (replacing its contents only on success).
  void build_into(Slot& slot, const DynamicGraph& graph,
                  const std::vector<VertexId>& vertices,
                  std::uint64_t byte_budget, gpusim::Device& device,
                  gpusim::TrafficCounters& counters);

  Slot active_;
  Slot staged_;
  // True between a successful build_staged() and its publish()/discard —
  // distinct from staged_.row_count, which is legitimately zero when the
  // budget admitted no rows (the swap must still happen so the active epoch
  // matches the graph it was packed from).
  bool staged_valid_ = false;
};

// The lookup path, inline: it runs once per neighbor-list fetch.

inline std::uint32_t DcsrCache::Index::position(const VertexId* ids,
                                                VertexId v) const {
  if (v < 0) return 0;
  const std::uint64_t b = static_cast<std::uint64_t>(v) >> shift;
  const auto rows = static_cast<std::uint32_t>(steps.size() - 1);
  if (b + 1 >= first.size()) return rows;
  return static_cast<std::uint32_t>(
      std::lower_bound(ids + first[b], ids + first[b + 1], v) - ids);
}

inline NeighborView DcsrCache::Slot::view(std::uint32_t row,
                                          ViewMode mode) const {
  const std::int64_t begin = rowptr[row].begin;
  const std::int64_t new_begin = rowptr[row].new_begin;
  const std::int64_t end = rowptr[row + 1].begin;
  const std::int64_t prefix_end = new_begin < 0 ? end : new_begin;
  GCSM_ASSERT(begin <= prefix_end && prefix_end <= end,
              "DCSR row offsets out of order");

  NeighborView view;
  view.mode = mode;
  view.tombstones = index.tombstones[row] != 0;
  view.prefix = {colidx + begin,
                 static_cast<std::uint32_t>(prefix_end - begin)};
  if (mode == ViewMode::kNew && new_begin >= 0) {
    view.appended = {colidx + new_begin,
                     static_cast<std::uint32_t>(end - new_begin)};
  }
  return view;
}

inline std::optional<NeighborView> DcsrCache::lookup(
    VertexId v, ViewMode mode, std::uint32_t& search_steps) const {
  const Slot& s = active_;
  if (s.row_count == 0) {
    search_steps = 0;
    return std::nullopt;
  }
  const std::uint32_t pos = s.index.position(s.rowidx, v);
  search_steps = s.index.steps[pos];
  if (pos >= s.row_count || s.rowidx[pos] != v) return std::nullopt;
  return s.view(pos, mode);
}

}  // namespace gcsm
