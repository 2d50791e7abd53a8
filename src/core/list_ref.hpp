// Decoding of neighbor-list views.
//
// A NeighborView is up to two sorted runs with tombstone semantics (see
// graph/dynamic_graph.hpp). The candidate kernel (core/intersect.hpp) reads
// plain views where they lie and calls materialize_view only for the rare
// multi-segment or tombstoned ones; host-side passes that need a list of
// live ids (seed scans, partitioning, validation) call it directly.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.hpp"

namespace gcsm {

// Appends the live decoded ids of `view` to `out` in ascending order.
//  kOld: every prefix entry decoded (tombstones were live pre-batch).
//  kNew: prefix entries that are not tombstoned, merged with the appended
//        run (both sorted, so a linear merge).
void materialize_view(const NeighborView& view, std::vector<VertexId>& out);

// Number of live ids `materialize_view` would produce.
std::uint32_t view_live_size(const NeighborView& view);

// True if `target` is a live member of the view (binary search per run).
bool view_contains(const NeighborView& view, VertexId target);

}  // namespace gcsm
