// The dynamic data graph maintained on the CPU (paper Sec. V-A).
//
// Each vertex owns a contiguous, capacity-doubled adjacency array allocated
// in (simulated) pinned host memory so the GPU kernel can zero-copy it. A
// batch update ΔE is applied in the paper's steps:
//   1. insertions are appended to the end of the lists (O(1) amortized),
//   2. new vertices get arrays sized to the average degree,
//   3. deletions are tombstoned in place (id -> ~id) via binary search,
//   4. after the GPU kernel finishes, `reorganize()` merge-sorts each
//      touched list, dropping tombstones.
//
// Between steps 3 and 4 the structure exposes BOTH snapshots needed by the
// delta-join loops of Fig. 2:
//   * the OLD view N(v):  the pre-batch list — the sorted prefix with
//     tombstones *decoded as live* (they existed before the batch), without
//     the appended segment;
//   * the NEW view N'(v): the post-batch list — the prefix with tombstones
//     skipped, plus the (sorted) appended segment.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace gcsm {

class FaultInjector;

enum class ViewMode : std::uint8_t { kOld, kNew };

// One sorted segment of stored adjacency entries (tombstones possible).
struct NeighborSeg {
  const VertexId* data = nullptr;
  std::uint32_t size = 0;
};

// A neighbor-list view over up to two sorted segments.
//  kOld: iterate `prefix`, decoding tombstones as live; `appended` is empty.
//  kNew: iterate `prefix` skipping tombstones, then `appended` (all live).
// Both segments are sorted by decoded vertex id.
//
// `tombstones` is false only when `prefix` is known to hold none, so a
// reader may take a one-segment view as a plain run of live ids without
// scanning it. DynamicGraph::view() and DcsrCache::lookup() set it from the
// list's tombstone count; a hand-built view keeps the default, which is
// always correct ("may hold tombstones, so decode").
struct NeighborView {
  NeighborSeg prefix;
  NeighborSeg appended;
  ViewMode mode = ViewMode::kNew;
  bool tombstones = true;

  // Upper bound on the number of live entries (exact for kOld).
  std::uint32_t size_bound() const { return prefix.size + appended.size; }
  // Bytes a kernel must fetch to scan this view.
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(size_bound()) * sizeof(VertexId);
  }
};

class DynamicGraph {
 public:
  explicit DynamicGraph(const CsrGraph& initial);

  VertexId num_vertices() const {
    return static_cast<VertexId>(adj_.size());
  }
  EdgeCount num_live_edges() const { return live_edges_; }
  Label label(VertexId v) const { return labels_[v]; }

  // Upper bound on the live degree of any vertex, maintained incrementally.
  // Used as D in the random-walk estimator; an upper bound keeps the
  // estimator unbiased as long as the same D is used for sampling and for
  // the importance weights.
  std::uint32_t max_degree_bound() const { return max_degree_bound_; }
  double avg_degree() const;

  std::uint32_t live_degree(VertexId v) const {
    const auto& a = adj_[v];
    return a.old_size - a.old_tombstones + (a.size - a.old_size);
  }

  // Degree in the pre-batch (OLD view) graph: every prefix entry was live.
  std::uint32_t pre_batch_degree(VertexId v) const {
    return adj_[v].old_size;
  }

  NeighborView view(VertexId v, ViewMode mode) const {
    const auto& a = adj_[v];
    NeighborView view;
    view.mode = mode;
    view.tombstones = a.old_tombstones != 0;
    view.prefix = {a.data.get(), a.old_size};
    if (mode == ViewMode::kNew) {
      view.appended = {a.data.get() + a.old_size, a.size - a.old_size};
    }
    return view;
  }

  // The pinned-memory addresses of vertex v's list: the CPU address (pHost)
  // and the device-mapped address (pDevice). Identical in the simulation but
  // kept distinct so call sites document the address space they use.
  const VertexId* host_ptr(VertexId v) const { return adj_[v].data.get(); }
  const VertexId* device_ptr(VertexId v) const { return adj_[v].data.get(); }

  // Steps 1-3: appends insertions (allocating new vertices as needed),
  // tombstones deletions, and sorts each appended segment. Preconditions
  // (guaranteed by UpdateStream, or by sanitize_batch for untrusted input):
  // inserted edges are absent from the current graph; deleted edges are live
  // in the pre-batch graph; a batch never contains the same undirected edge
  // twice.
  void apply_batch(const EdgeBatch& batch);

  // A checkpoint of graph state, used at two granularities that share one
  // representation and one restore path (graph/snapshot.hpp serializes it):
  //
  //   * PARTIAL (snapshot_for): exactly the state a batch can touch — the
  //     adjacency lists of the batch's endpoints plus the global counters.
  //     O(sum of touched list sizes); this is process_batch's rollback
  //     transaction.
  //   * FULL (snapshot_full): every list, every label, the touched set, and
  //     the counters — the durable on-disk snapshot, valid even with a
  //     pending (applied-but-unreorganized) batch in flight.
  //
  // restore() rolls the graph back even from a half-applied (or corrupted)
  // mid-batch state, after which validate() holds again.
  struct Snapshot {
    bool full = false;  // full snapshots also carry labels/touched
    VertexId num_vertices = 0;
    EdgeCount live_edges = 0;
    std::uint32_t max_degree_bound = 0;
    std::uint32_t initial_avg_degree = 0;  // full only

    struct ListCopy {
      VertexId v = kInvalidVertex;
      std::vector<VertexId> entries;  // stored entries [0, size)
      std::uint32_t capacity = 0;
      std::uint32_t size = 0;
      std::uint32_t old_size = 0;
      std::uint32_t old_tombstones = 0;
    };
    std::vector<ListCopy> lists;
    std::vector<Label> labels;     // full only
    std::vector<VertexId> touched;  // full only: pending-reorg lists
  };

  // Captures the pre-batch state of every list `batch` can modify. Requires
  // a reorganized graph (no pending batch).
  Snapshot snapshot_for(const EdgeBatch& batch) const;

  // Captures the complete graph state, pending-reorg work included.
  Snapshot snapshot_full() const;

  // Rolls back to `snap`: drops vertices created since, restores the saved
  // lists verbatim, resets the counters, and rebuilds the touched set (full
  // snapshots restore theirs; partial ones clear it).
  void restore(const Snapshot& snap);

  // Arms the graph.apply fault site inside apply_batch (mid-append, so the
  // interrupted state is genuinely half-applied). nullptr disarms.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  struct ReorgStats {
    std::size_t lists = 0;     // neighbor lists reorganized
    std::uint64_t entries = 0;  // adjacency entries scanned/merged
  };

  // Step 4: compacts and merge-sorts every touched list; afterwards the OLD
  // and NEW views coincide.
  ReorgStats reorganize();

  bool has_pending_batch() const { return !touched_.empty(); }

  // True if (u, v) is live in the NEW view.
  bool has_live_edge(VertexId u, VertexId v) const;

  // Materializes the NEW view as an immutable CSR snapshot (for reference
  // matching in tests).
  CsrGraph to_csr() const;

  // Bytes occupied by the stored list of v (prefix + appended).
  std::uint64_t list_bytes(VertexId v) const {
    return static_cast<std::uint64_t>(adj_[v].size) * sizeof(VertexId);
  }

  // Checks every structural invariant of the store (docs/ANALYSIS.md):
  // array sizes consistent, every prefix sorted by decoded id and
  // duplicate-free, appended runs sorted and tombstone-free, per-list
  // tombstone counters exact, the touched set exactly the lists with pending
  // work, adjacency symmetric in the NEW view, and the live-edge /
  // max-degree accounting in agreement with the lists. Valid in both the
  // pending-batch and reorganized states. Throws CheckFailure on the first
  // violation. Cost is O(E log d) — call at batch boundaries, not per edge.
  void validate() const;

 private:
  struct AdjList {
    std::unique_ptr<VertexId[]> data;
    std::uint32_t capacity = 0;
    std::uint32_t size = 0;            // prefix + appended entries
    std::uint32_t old_size = 0;        // prefix length (pre-batch entries)
    std::uint32_t old_tombstones = 0;  // tombstones within the prefix
  };

  Snapshot::ListCopy copy_list(VertexId v) const;
  void ensure_capacity(VertexId v, std::uint32_t needed);
  void append_neighbor(VertexId v, VertexId neighbor);
  bool tombstone_in_prefix(VertexId v, VertexId neighbor);
  void note_touched(VertexId v);

  std::vector<AdjList> adj_;
  std::vector<Label> labels_;
  std::vector<std::uint8_t> touched_flag_;
  std::vector<VertexId> touched_;
  EdgeCount live_edges_ = 0;
  std::uint32_t max_degree_bound_ = 0;
  std::uint32_t initial_avg_degree_ = 4;
  FaultInjector* faults_ = nullptr;
};

}  // namespace gcsm
