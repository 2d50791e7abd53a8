#include "core/dcsr_cache.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace gcsm {
namespace {

// The probes of the kernel's binary search over `rows` ascending ids for an
// id whose lower bound is `pos`: the search compares rowidx[mid] < v, which
// is exactly mid < pos.
std::uint32_t probe_count(std::uint32_t rows, std::uint32_t pos) {
  std::uint32_t probes = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = rows;
  while (lo < hi) {
    ++probes;
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (mid < pos) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return probes;
}

// probe_count(rows, pos) for every pos in [lo, hi], given the search has
// made `depth` probes to reach the range [lo, hi): one visit per node of
// the search tree, so O(rows) in all.
void fill_probe_counts(std::uint32_t lo, std::uint32_t hi, std::uint8_t depth,
                       std::vector<std::uint8_t>& steps) {
  if (lo >= hi) {
    steps[lo] = depth;
    return;
  }
  const std::uint32_t mid = lo + (hi - lo) / 2;
  const auto next = static_cast<std::uint8_t>(depth + 1);
  fill_probe_counts(lo, mid, next, steps);      // pos <= mid
  fill_probe_counts(mid + 1, hi, next, steps);  // pos > mid
}

// The smallest shift with (id_bound >> shift) <= rows.
std::uint32_t bucket_shift(VertexId id_bound, std::uint32_t rows) {
  std::uint32_t shift = 0;
  while ((static_cast<std::uint64_t>(id_bound) >> shift) > rows) ++shift;
  return shift;
}

}  // namespace

DcsrCache::Index DcsrCache::build_index(const VertexId* ids,
                                        std::uint32_t rows,
                                        VertexId id_bound) {
  Index index;
  index.id_bound = id_bound;
  index.shift = bucket_shift(id_bound, rows);
  const std::uint64_t buckets =
      (static_cast<std::uint64_t>(id_bound) >> index.shift) + 2;
  index.first.resize(buckets);
  std::uint32_t pos = 0;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const std::uint64_t lo = b << index.shift;
    while (pos < rows && static_cast<std::uint64_t>(ids[pos]) < lo) ++pos;
    index.first[b] = pos;
  }
  index.steps.resize(static_cast<std::size_t>(rows) + 1);
  fill_probe_counts(0, rows, 0, index.steps);
  index.tombstones.resize(rows);
  return index;
}

void DcsrCache::build(const DynamicGraph& graph,
                      const std::vector<VertexId>& vertices,
                      std::uint64_t byte_budget, gpusim::Device& device,
                      gpusim::TrafficCounters& counters) {
  clear();
  build_into(active_, graph, vertices, byte_budget, device, counters);
}

void DcsrCache::build_staged(const DynamicGraph& graph,
                             const std::vector<VertexId>& vertices,
                             std::uint64_t byte_budget, gpusim::Device& device,
                             gpusim::TrafficCounters& counters) {
  staged_.reset();
  staged_valid_ = false;
  // The staged build gets the FULL budget: the previous epoch's last
  // consumer (the prior batch's match fan-out) has already completed by the
  // time the pack phase runs, so the old blob is garbage awaiting the swap.
  // Charging it against the new epoch starves alternate batches to an empty
  // cache whenever one epoch fills the budget. The allocate-then-swap
  // transient does double-occupy the device by up to one epoch until
  // publish() frees the old blob — steady-state residency stays within
  // budget, and the OOM ladder still governs genuine device exhaustion.
  build_into(staged_, graph, vertices, byte_budget, device, counters);
  staged_valid_ = true;
}

void DcsrCache::publish() {
  if (!staged_valid_) return;
  active_ = std::move(staged_);
  staged_.reset();
  staged_valid_ = false;
}

void DcsrCache::discard_staged() {
  staged_.reset();
  staged_valid_ = false;
}

void DcsrCache::build_into(Slot& slot, const DynamicGraph& graph,
                           const std::vector<VertexId>& vertices,
                           std::uint64_t byte_budget, gpusim::Device& device,
                           gpusim::TrafficCounters& counters) {
  static auto& m_builds = metrics::Registry::global().counter(metric::kCacheBuilds);
  static auto& m_failures =
      metrics::Registry::global().counter(metric::kCacheBuildFailures);
  static auto& m_vertices =
      metrics::Registry::global().counter(metric::kCacheBuiltVertices);
  static auto& m_bytes =
      metrics::Registry::global().counter(metric::kCacheBuiltBytes);
  static auto& m_blob_gauge =
      metrics::Registry::global().gauge(metric::kCacheBlobBytes);
  // The span shares the canonical fault-site name so a trace of a faulted
  // run lines up with the injector's observations (and so gcsm_lint has a
  // single spelling to hold the tree to).
  const trace::Span span(fault_site::kCacheBuild);

  if (FaultInjector* faults = device.fault_injector();
      faults != nullptr && faults->fires(fault_site::kCacheBuild)) {
    m_failures.add();
    throw Error(ErrorCode::kCacheBuild,
                "injected fault: DCSR cache build aborted (transient)");
  }

  // Respect the byte budget in the caller's priority order, then sort the
  // survivors so rowidx is binary-searchable.
  std::vector<VertexId> selected;
  selected.reserve(vertices.size());
  std::uint64_t colidx_bytes = 0;
  for (const VertexId v : vertices) {
    const std::uint64_t lb = graph.list_bytes(v);
    const std::uint64_t row_overhead = sizeof(VertexId) + sizeof(RowPtr);
    if (colidx_bytes + lb +
            (selected.size() + 2) * row_overhead >
        byte_budget) {
      continue;
    }
    selected.push_back(v);
    colidx_bytes += lb;
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());

  // An empty hot set (every update quarantined, or a budget too small for a
  // single row) leaves the slot cleared instead of packing a sentinel-only
  // blob: validate() pins "no rows" to "no arrays, no blob".
  if (selected.empty()) {
    slot.reset();
    m_builds.add();
    m_blob_gauge.set(0.0);
    return;
  }

  // Everything below works on locals; the slot is assigned only once the
  // allocation and the DMA have both succeeded, so a throw from either
  // leaves it in its cleared (valid, empty) state.
  const auto row_count = static_cast<std::uint32_t>(selected.size());
  const std::uint64_t rowptr_bytes =
      (static_cast<std::uint64_t>(row_count) + 1) * sizeof(RowPtr);
  const std::uint64_t rowidx_bytes =
      static_cast<std::uint64_t>(row_count) * sizeof(VertexId);
  // Recompute colidx_bytes over the deduplicated set.
  colidx_bytes = 0;
  for (const VertexId v : selected) colidx_bytes += graph.list_bytes(v);
  const std::uint64_t blob_bytes = rowptr_bytes + rowidx_bytes + colidx_bytes;

  // Host staging buffer: one allocation, then one DMA (paper Sec. V-B).
  std::vector<std::byte> staging(blob_bytes);
  auto* rowptr = reinterpret_cast<RowPtr*>(staging.data());
  auto* rowidx = reinterpret_cast<VertexId*>(staging.data() + rowptr_bytes);
  auto* colidx = reinterpret_cast<VertexId*>(staging.data() + rowptr_bytes +
                                             rowidx_bytes);

  Index index =
      build_index(selected.data(), row_count, graph.num_vertices());
  std::int64_t cursor = 0;
  for (std::uint32_t i = 0; i < row_count; ++i) {
    const VertexId v = selected[i];
    rowidx[i] = v;
    const NeighborView view = graph.view(v, ViewMode::kNew);
    index.tombstones[i] = view.tombstones ? 1 : 0;
    rowptr[i].begin = cursor;
    rowptr[i].new_begin =
        view.appended.size > 0 ? cursor + view.prefix.size : -1;
    std::memcpy(colidx + cursor, view.prefix.data,
                view.prefix.size * sizeof(VertexId));
    cursor += view.prefix.size;
    std::memcpy(colidx + cursor, view.appended.data,
                view.appended.size * sizeof(VertexId));
    cursor += view.appended.size;
  }
  rowptr[row_count].begin = cursor;  // sentinel: length of colidx
  rowptr[row_count].new_begin = -1;

  // alloc / DMA throw on (injected) device failure; count those as build
  // failures too so the metric mirrors every aborted pack.
  gpusim::DeviceBuffer blob;
  try {
    blob = device.alloc(blob_bytes);
    device.dma_to_device(blob, staging.data(), blob_bytes, counters);
  } catch (...) {
    m_failures.add();
    throw;
  }

  m_builds.add();
  m_vertices.add(row_count);
  m_bytes.add(blob_bytes);
  m_blob_gauge.set(static_cast<double>(blob_bytes));

  slot.blob = std::move(blob);
  slot.row_count = row_count;
  slot.blob_bytes = blob_bytes;
  slot.rowptr = reinterpret_cast<const RowPtr*>(slot.blob.data());
  slot.rowidx =
      reinterpret_cast<const VertexId*>(slot.blob.data() + rowptr_bytes);
  slot.colidx = reinterpret_cast<const VertexId*>(slot.blob.data() +
                                                  rowptr_bytes + rowidx_bytes);
  slot.index = std::move(index);
}

void DcsrCache::clear() {
  active_.reset();
  staged_.reset();
  staged_valid_ = false;
}

NeighborView DcsrCache::row_view(std::uint32_t row, ViewMode mode) const {
  GCSM_CHECK(row < active_.row_count, "row_view past the cached rows");
  return active_.view(row, mode);
}

void DcsrCache::validate(const DynamicGraph* graph) const {
  const Slot& s = active_;
  if (s.row_count == 0) {
    GCSM_CHECK(s.rowidx == nullptr && s.rowptr == nullptr &&
                   s.colidx == nullptr,
               "empty cache holds dangling array pointers");
    GCSM_CHECK(s.blob_bytes == 0, "empty cache reports a non-zero blob");
    GCSM_CHECK(s.index.first.empty() && s.index.steps.empty() &&
                   s.index.tombstones.empty(),
               "empty cache holds a lookup index");
    return;
  }

  GCSM_CHECK(s.blob.valid(), "cache rows without a device blob");
  const std::uint64_t rowptr_bytes =
      (static_cast<std::uint64_t>(s.row_count) + 1) * sizeof(RowPtr);
  const std::uint64_t rowidx_bytes =
      static_cast<std::uint64_t>(s.row_count) * sizeof(VertexId);
  GCSM_CHECK(s.blob_bytes == s.blob.size(),
             "blob byte counter disagrees with the device buffer");
  GCSM_CHECK(s.blob_bytes >= rowptr_bytes + rowidx_bytes,
             "blob smaller than its own header arrays");
  const auto colidx_len = static_cast<std::int64_t>(
      (s.blob_bytes - rowptr_bytes - rowidx_bytes) / sizeof(VertexId));

  // The three arrays must tile the blob in rowptr / rowidx / colidx order.
  const auto* base = s.blob.data();
  GCSM_CHECK(reinterpret_cast<const std::byte*>(s.rowptr) == base,
             "rowptr does not start the blob");
  GCSM_CHECK(reinterpret_cast<const std::byte*>(s.rowidx) ==
                 base + rowptr_bytes,
             "rowidx not contiguous after rowptr");
  GCSM_CHECK(reinterpret_cast<const std::byte*>(s.colidx) ==
                 base + rowptr_bytes + rowidx_bytes,
             "colidx not contiguous after rowidx");

  GCSM_CHECK(s.rowptr[0].begin == 0, "first row does not start at offset 0");
  GCSM_CHECK(s.rowptr[s.row_count].begin == colidx_len,
             "rowptr sentinel does not equal the colidx length");
  GCSM_CHECK(s.rowptr[s.row_count].new_begin == -1,
             "rowptr sentinel carries an appended offset");

  // The host index must agree with rowidx: the smallest shift, every
  // bucket start a lower bound, every probe count the search's own.
  const Index& ix = s.index;
  GCSM_CHECK(s.rowidx[s.row_count - 1] < ix.id_bound,
             "cached vertex at or past the index's id bound");
  GCSM_CHECK(ix.shift == bucket_shift(ix.id_bound, s.row_count),
             "index shift is not the smallest with (V >> shift) <= rows");
  GCSM_CHECK(ix.first.size() ==
                 (static_cast<std::uint64_t>(ix.id_bound) >> ix.shift) + 2,
             "index bucket count disagrees with its shift");
  for (std::size_t b = 0; b < ix.first.size(); ++b) {
    const std::uint64_t lo = static_cast<std::uint64_t>(b) << ix.shift;
    const auto want = static_cast<std::uint32_t>(
        std::partition_point(s.rowidx, s.rowidx + s.row_count,
                             [&](VertexId id) {
                               return static_cast<std::uint64_t>(id) < lo;
                             }) -
        s.rowidx);
    GCSM_CHECK(ix.first[b] == want,
               "index bucket " + std::to_string(b) +
                   " does not start at its lower bound in rowidx");
  }
  GCSM_CHECK(ix.steps.size() == static_cast<std::size_t>(s.row_count) + 1,
             "index probe table is not rows + 1 long");
  for (std::uint32_t pos = 0; pos <= s.row_count; ++pos) {
    GCSM_CHECK(ix.steps[pos] == probe_count(s.row_count, pos),
               "index probe count at position " + std::to_string(pos) +
                   " differs from the binary search");
  }
  GCSM_CHECK(ix.tombstones.size() == s.row_count,
             "index tombstone flags are not one per row");

  for (std::uint32_t i = 0; i < s.row_count; ++i) {
    const std::string ctx = "cached row " + std::to_string(i);
    if (i > 0) {
      GCSM_CHECK(s.rowidx[i - 1] < s.rowidx[i],
                 ctx + ": rowidx not strictly ascending");
    }
    const std::int64_t begin = s.rowptr[i].begin;
    const std::int64_t end = s.rowptr[i + 1].begin;
    const std::int64_t new_begin = s.rowptr[i].new_begin;
    GCSM_CHECK(begin <= end, ctx + ": row offsets not monotone");
    GCSM_CHECK(begin >= 0 && end <= colidx_len,
               ctx + ": row offsets outside the colidx extent");
    const std::int64_t prefix_end = new_begin < 0 ? end : new_begin;
    if (new_begin >= 0) {
      GCSM_CHECK(begin <= new_begin && new_begin <= end,
                 ctx + ": appended offset outside the row");
      // A non-negative new_begin promises appended entries exist.
      GCSM_CHECK(new_begin < end, ctx + ": appended offset marks an empty run");
    }
    // Prefix sorted by decoded id, appended run sorted and live — the same
    // layout DynamicGraph::validate() enforces on the source lists.
    for (std::int64_t j = begin + 1; j < prefix_end; ++j) {
      GCSM_CHECK(
          decode_neighbor(s.colidx[j - 1]) < decode_neighbor(s.colidx[j]),
          ctx + ": prefix not strictly sorted by decoded id");
    }
    const bool tombstoned =
        std::any_of(s.colidx + begin, s.colidx + prefix_end,
                    [](VertexId w) { return is_deleted_neighbor(w); });
    GCSM_CHECK((ix.tombstones[i] != 0) == tombstoned,
               ctx + ": index tombstone flag disagrees with the prefix");
    for (std::int64_t j = prefix_end; j < end; ++j) {
      GCSM_CHECK(!is_deleted_neighbor(s.colidx[j]),
                 ctx + ": tombstone in appended run");
      if (j > prefix_end) {
        GCSM_CHECK(s.colidx[j - 1] < s.colidx[j],
                   ctx + ": appended run not strictly sorted");
      }
    }

    if (graph != nullptr) {
      const VertexId v = s.rowidx[i];
      GCSM_CHECK(v >= 0 && v < graph->num_vertices(),
                 ctx + ": cached vertex not in the graph");
      const NeighborView src = graph->view(v, ViewMode::kNew);
      GCSM_CHECK(static_cast<std::int64_t>(src.prefix.size) ==
                     prefix_end - begin,
                 ctx + ": cached prefix length differs from the graph");
      GCSM_CHECK(static_cast<std::int64_t>(src.appended.size) ==
                     end - prefix_end,
                 ctx + ": cached appended length differs from the graph");
      GCSM_CHECK(std::memcmp(s.colidx + begin, src.prefix.data,
                             src.prefix.size * sizeof(VertexId)) == 0,
                 ctx + ": cached prefix is not a verbatim copy");
      GCSM_CHECK(std::memcmp(s.colidx + prefix_end, src.appended.data,
                             src.appended.size * sizeof(VertexId)) == 0,
                 ctx + ": cached appended run is not a verbatim copy");
    }
  }
}

}  // namespace gcsm
