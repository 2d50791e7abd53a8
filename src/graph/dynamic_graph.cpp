#include "graph/dynamic_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <unordered_set>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace gcsm {

DynamicGraph::DynamicGraph(const CsrGraph& initial) {
  const VertexId n = initial.num_vertices();
  adj_.resize(n);
  labels_.assign(initial.labels().begin(), initial.labels().end());
  touched_flag_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const auto nb = initial.neighbors(v);
    auto& a = adj_[v];
    // Paper: preallocate to double the initial neighbor count.
    a.capacity = std::max<std::uint32_t>(
        4, 2 * static_cast<std::uint32_t>(nb.size()));
    a.data = std::make_unique<VertexId[]>(a.capacity);
    std::copy(nb.begin(), nb.end(), a.data.get());
    a.size = a.old_size = static_cast<std::uint32_t>(nb.size());
  }
  live_edges_ = initial.num_edges();
  max_degree_bound_ = initial.max_degree();
  initial_avg_degree_ = std::max<std::uint32_t>(
      4, static_cast<std::uint32_t>(initial.avg_degree()) + 1);
}

double DynamicGraph::avg_degree() const {
  return adj_.empty() ? 0.0
                      : 2.0 * static_cast<double>(live_edges_) /
                            static_cast<double>(adj_.size());
}

void DynamicGraph::ensure_capacity(VertexId v, std::uint32_t needed) {
  auto& a = adj_[v];
  if (needed <= a.capacity) return;
  std::uint32_t cap = std::max<std::uint32_t>(a.capacity, 2);
  while (cap < needed) cap *= 2;
  auto bigger = std::make_unique<VertexId[]>(cap);
  std::memcpy(bigger.get(), a.data.get(), a.size * sizeof(VertexId));
  a.data = std::move(bigger);
  a.capacity = cap;
}

void DynamicGraph::append_neighbor(VertexId v, VertexId neighbor) {
  GCSM_ASSERT(neighbor >= 0, "appending a tombstoned neighbor id");
  auto& a = adj_[v];
  ensure_capacity(v, a.size + 1);
  a.data[a.size++] = neighbor;
}

bool DynamicGraph::tombstone_in_prefix(VertexId v, VertexId neighbor) {
  auto& a = adj_[v];
  // Binary search on decoded values; the prefix stays sorted by decoded id
  // because tombstoning rewrites entries in place.
  std::uint32_t lo = 0;
  std::uint32_t hi = a.old_size;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (decode_neighbor(a.data[mid]) < neighbor) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < a.old_size && decode_neighbor(a.data[lo]) == neighbor &&
      !is_deleted_neighbor(a.data[lo])) {
    a.data[lo] = tombstone(neighbor);
    ++a.old_tombstones;
    return true;
  }
  return false;
}

void DynamicGraph::note_touched(VertexId v) {
  if (!touched_flag_[v]) {
    touched_flag_[v] = 1;
    touched_.push_back(v);
  }
}

void DynamicGraph::apply_batch(const EdgeBatch& batch) {
  static auto& m_batches =
      metrics::Registry::global().counter(metric::kGraphBatchesApplied);
  static auto& m_inserts =
      metrics::Registry::global().counter(metric::kGraphEdgesInserted);
  static auto& m_tombstones =
      metrics::Registry::global().counter(metric::kGraphEdgesTombstoned);
  static auto& m_new_vertices =
      metrics::Registry::global().counter(metric::kGraphVerticesAdded);
  GCSM_CHECK(!has_pending_batch(),
             "apply_batch called with a pending batch; call reorganize() "
             "first");
  m_batches.add();

  // Step 2: new vertices, arrays sized to the average degree.
  const VertexId vertices_before = num_vertices();
  for (const auto& [v, label] : batch.new_vertex_labels) {
    if (v < num_vertices()) {
      throw Error(ErrorCode::kConfig, "new vertex id already exists");
    }
    while (num_vertices() <= v) {
      AdjList a;
      a.capacity = initial_avg_degree_;
      a.data = std::make_unique<VertexId[]>(a.capacity);
      adj_.push_back(std::move(a));
      labels_.push_back(0);
      touched_flag_.push_back(0);
    }
    labels_[v] = label;
  }
  m_new_vertices.add(
      static_cast<std::uint64_t>(num_vertices() - vertices_before));

  // Fault site: fires at most once per batch, halfway through the record
  // list and between the two directed writes of that record — the nastiest
  // spot, since it leaves an asymmetric half-applied edge that only
  // restore() can clean up.
  const std::size_t fault_index = batch.updates.size() / 2;
  auto inject_apply_fault = [&](std::size_t idx) {
    if (idx == fault_index && faults_ != nullptr &&
        faults_->fires(fault_site::kGraphApply)) {
      throw Error(ErrorCode::kGraphApply,
                  "injected fault: batch apply interrupted mid-append");
    }
  };

  for (std::size_t idx = 0; idx < batch.updates.size(); ++idx) {
    const EdgeUpdate& e = batch.updates[idx];
    if (e.u < 0 || e.v < 0 || e.u >= num_vertices() ||
        e.v >= num_vertices()) {
      throw Error(ErrorCode::kConfig, "update endpoint out of range");
    }
    if (e.sign > 0) {
      // Step 1: append to both directed lists.
      append_neighbor(e.u, e.v);
      inject_apply_fault(idx);
      append_neighbor(e.v, e.u);
      ++live_edges_;
      m_inserts.add();
    } else {
      // Step 3: tombstone in both directed prefixes.
      const bool a = tombstone_in_prefix(e.u, e.v);
      inject_apply_fault(idx);
      const bool b = tombstone_in_prefix(e.v, e.u);
      if (!a || !b) {
        throw Error(ErrorCode::kConfig, "deletion of a non-live edge");
      }
      --live_edges_;
      m_tombstones.add();
    }
    note_touched(e.u);
    note_touched(e.v);
  }

  // Keep appended segments sorted so NEW-view set intersections can treat
  // them as a second sorted run (paper Sec. V-C: "Since N and ΔN are
  // sorted ...").
  for (const VertexId v : touched_) {
    auto& a = adj_[v];
    std::sort(a.data.get() + a.old_size, a.data.get() + a.size);
    max_degree_bound_ = std::max(max_degree_bound_, live_degree(v));
  }
}

DynamicGraph::Snapshot::ListCopy DynamicGraph::copy_list(VertexId v) const {
  const AdjList& a = adj_[v];
  Snapshot::ListCopy copy;
  copy.v = v;
  copy.capacity = a.capacity;
  copy.size = a.size;
  copy.old_size = a.old_size;
  copy.old_tombstones = a.old_tombstones;
  copy.entries.assign(a.data.get(), a.data.get() + a.size);
  return copy;
}

DynamicGraph::Snapshot DynamicGraph::snapshot_for(
    const EdgeBatch& batch) const {
  GCSM_CHECK(!has_pending_batch(),
             "snapshot_for requires a reorganized graph (no pending batch)");
  Snapshot snap;
  snap.num_vertices = num_vertices();
  snap.live_edges = live_edges_;
  snap.max_degree_bound = max_degree_bound_;
  std::unordered_set<VertexId> seen;
  seen.reserve(batch.updates.size() * 2);
  auto save = [&](VertexId v) {
    // Endpoints at or beyond the current vertex count need no copy: restore
    // drops the vertices the batch created by truncating back to the
    // snapshot count.
    if (v < 0 || v >= snap.num_vertices || !seen.insert(v).second) return;
    snap.lists.push_back(copy_list(v));
  };
  for (const EdgeUpdate& e : batch.updates) {
    save(e.u);
    save(e.v);
  }
  return snap;
}

DynamicGraph::Snapshot DynamicGraph::snapshot_full() const {
  Snapshot snap;
  snap.full = true;
  snap.num_vertices = num_vertices();
  snap.live_edges = live_edges_;
  snap.max_degree_bound = max_degree_bound_;
  snap.initial_avg_degree = initial_avg_degree_;
  snap.lists.reserve(adj_.size());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    snap.lists.push_back(copy_list(v));
  }
  snap.labels = labels_;
  snap.touched = touched_;
  return snap;
}

void DynamicGraph::restore(const Snapshot& snap) {
  // Clear the touched set first: its flags for dropped vertices vanish with
  // the truncation below, the rest are snapshot vertices.
  for (const VertexId v : touched_) {
    if (v < snap.num_vertices) touched_flag_[v] = 0;
  }
  touched_.clear();
  adj_.resize(static_cast<std::size_t>(snap.num_vertices));
  labels_.resize(static_cast<std::size_t>(snap.num_vertices));
  touched_flag_.resize(static_cast<std::size_t>(snap.num_vertices));
  for (const Snapshot::ListCopy& copy : snap.lists) {
    AdjList& a = adj_[copy.v];
    if (a.capacity != copy.capacity) {
      a.data = std::make_unique<VertexId[]>(copy.capacity);
      a.capacity = copy.capacity;
    }
    std::copy(copy.entries.begin(), copy.entries.end(), a.data.get());
    a.size = copy.size;
    a.old_size = copy.old_size;
    a.old_tombstones = copy.old_tombstones;
  }
  live_edges_ = snap.live_edges;
  max_degree_bound_ = snap.max_degree_bound;
  if (snap.full) {
    labels_ = snap.labels;
    initial_avg_degree_ = snap.initial_avg_degree;
    std::fill(touched_flag_.begin(), touched_flag_.end(), 0);
    touched_ = snap.touched;
    for (const VertexId v : touched_) touched_flag_[v] = 1;
  }
}

DynamicGraph::ReorgStats DynamicGraph::reorganize() {
  static auto& m_calls = metrics::Registry::global().counter(metric::kGraphReorgCalls);
  static auto& m_lists = metrics::Registry::global().counter(metric::kGraphReorgLists);
  static auto& m_entries =
      metrics::Registry::global().counter(metric::kGraphReorgEntries);
  ReorgStats stats;
  stats.lists = touched_.size();
  for (const VertexId v : touched_) {
    auto& a = adj_[v];
    stats.entries += a.size;
    // Compact the prefix (drop tombstones) while preserving order, then
    // merge with the sorted appended run: linear time per list, as in the
    // paper's merge-sort reorganization step.
    std::uint32_t w = 0;
    for (std::uint32_t r = 0; r < a.old_size; ++r) {
      if (!is_deleted_neighbor(a.data[r])) {
        a.data[w++] = a.data[r];
      }
    }
    const std::uint32_t appended = a.size - a.old_size;
    if (appended > 0) {
      std::memmove(a.data.get() + w, a.data.get() + a.old_size,
                   appended * sizeof(VertexId));
      std::inplace_merge(a.data.get(), a.data.get() + w,
                         a.data.get() + w + appended);
    }
    a.size = a.old_size = w + appended;
    a.old_tombstones = 0;
    GCSM_ASSERT(std::is_sorted(a.data.get(), a.data.get() + a.size),
                "list not sorted after reorganization");
    touched_flag_[v] = 0;
  }
  touched_.clear();
  m_calls.add();
  m_lists.add(stats.lists);
  m_entries.add(stats.entries);
  return stats;
}

bool DynamicGraph::has_live_edge(VertexId u, VertexId v) const {
  if (u < 0 || u >= num_vertices() || v < 0 || v >= num_vertices()) {
    return false;
  }
  const auto& a = adj_[u];
  // Prefix: binary search on decoded ids, must be live.
  std::uint32_t lo = 0;
  std::uint32_t hi = a.old_size;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (decode_neighbor(a.data[mid]) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < a.old_size && decode_neighbor(a.data[lo]) == v) {
    return !is_deleted_neighbor(a.data[lo]);
  }
  // Appended run (sorted, all live).
  return std::binary_search(a.data.get() + a.old_size, a.data.get() + a.size,
                            v);
}

void DynamicGraph::validate() const {
  const auto n = static_cast<std::size_t>(num_vertices());
  GCSM_CHECK(labels_.size() == n, "label array size mismatch");
  GCSM_CHECK(touched_flag_.size() == n, "touched-flag array size mismatch");

  // The touched set and its flag array must agree exactly.
  std::size_t flagged = 0;
  for (const std::uint8_t f : touched_flag_) flagged += f != 0 ? 1 : 0;
  GCSM_CHECK(flagged == touched_.size(),
             "touched flags disagree with the touched list");
  for (const VertexId v : touched_) {
    GCSM_CHECK(v >= 0 && static_cast<std::size_t>(v) < n,
               "touched vertex out of range");
    GCSM_CHECK(touched_flag_[v] != 0, "touched vertex without flag");
  }

  EdgeCount live_entries = 0;
  for (VertexId v = 0; static_cast<std::size_t>(v) < n; ++v) {
    const AdjList& a = adj_[v];
    const std::string ctx = "vertex " + std::to_string(v);
    GCSM_CHECK(a.size <= a.capacity, ctx + ": size exceeds capacity");
    GCSM_CHECK(a.old_size <= a.size, ctx + ": prefix longer than list");
    GCSM_CHECK(a.old_tombstones <= a.old_size,
               ctx + ": more tombstones than prefix entries");

    // Prefix: sorted strictly by decoded id (so binary search and merge
    // intersection stay correct), tombstone count exact.
    std::uint32_t tombstones = 0;
    for (std::uint32_t i = 0; i < a.old_size; ++i) {
      const VertexId decoded = decode_neighbor(a.data[i]);
      GCSM_CHECK(decoded >= 0 && static_cast<std::size_t>(decoded) < n,
                 ctx + ": prefix neighbor out of range");
      if (i > 0) {
        GCSM_CHECK(decode_neighbor(a.data[i - 1]) < decoded,
                   ctx + ": prefix not strictly sorted by decoded id");
      }
      if (is_deleted_neighbor(a.data[i])) ++tombstones;
    }
    GCSM_CHECK(tombstones == a.old_tombstones,
               ctx + ": tombstone counter does not match the prefix");

    // Appended run: strictly sorted, all live, endpoints in range.
    for (std::uint32_t i = a.old_size; i < a.size; ++i) {
      const VertexId w = a.data[i];
      GCSM_CHECK(!is_deleted_neighbor(w), ctx + ": tombstone in appended run");
      GCSM_CHECK(static_cast<std::size_t>(w) < n,
                 ctx + ": appended neighbor out of range");
      if (i > a.old_size) {
        GCSM_CHECK(a.data[i - 1] < w,
                   ctx + ": appended run not strictly sorted");
      }
    }

    // A list with pending work (appends or tombstones) must be touched.
    if (a.size != a.old_size || a.old_tombstones != 0) {
      GCSM_CHECK(touched_flag_[v] != 0, ctx + ": pending work but not touched");
    }

    const std::uint32_t live = live_degree(v);
    GCSM_CHECK(live <= max_degree_bound_,
               ctx + ": live degree exceeds max_degree_bound");
    live_entries += live;

    // NEW-view symmetry: every live neighbor must list v back. An appended
    // entry must not duplicate a live prefix entry (insertions target absent
    // edges), which has_live_edge's prefix-first probe would hide — so check
    // the runs separately.
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const VertexId stored = a.data[i];
      if (i < a.old_size && is_deleted_neighbor(stored)) continue;
      const VertexId w = decode_neighbor(stored);
      if (i >= a.old_size) {
        const NeighborView pre = view(v, ViewMode::kNew);
        bool live_in_prefix = false;
        for (std::uint32_t p = 0; p < pre.prefix.size; ++p) {
          if (!is_deleted_neighbor(pre.prefix.data[p]) &&
              pre.prefix.data[p] == w) {
            live_in_prefix = true;
            break;
          }
        }
        GCSM_CHECK(!live_in_prefix,
                   ctx + ": appended neighbor duplicates a live prefix entry");
      }
      GCSM_CHECK(has_live_edge(w, v),
                 ctx + ": live edge not symmetric in the NEW view");
    }
  }
  GCSM_CHECK(live_entries == 2 * live_edges_,
             "live-edge counter does not match the adjacency lists");
}

CsrGraph DynamicGraph::to_csr() const {
  std::vector<Edge> edges;
  edges.reserve(live_edges_);
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto& a = adj_[v];
    for (std::uint32_t i = 0; i < a.size; ++i) {
      const VertexId stored = a.data[i];
      if (i < a.old_size && is_deleted_neighbor(stored)) continue;
      const VertexId w = decode_neighbor(stored);
      if (v < w) edges.push_back({v, w});
    }
  }
  return CsrGraph::from_edges(num_vertices(), edges, labels_);
}

}  // namespace gcsm
