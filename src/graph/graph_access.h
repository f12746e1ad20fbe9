#ifndef SCHOLARRANK_GRAPH_GRAPH_ACCESS_H_
#define SCHOLARRANK_GRAPH_GRAPH_ACCESS_H_

#include <cstddef>
#include <vector>

#include "graph/citation_graph.h"
#include "graph/types.h"

namespace scholar {

class SnapshotView;

/// Uniform zero-cost adjacency interface the ranking kernels iterate:
/// satisfied by a full CitationGraph and by a zero-copy SnapshotView. Eight
/// raw pointers, so one non-templated kernel body serves both without
/// virtual dispatch:
///
///   for (EdgeId p = a.in_begin[v]; p < a.in_end[v]; ++p)
///     acc += f(a.in_neighbors[p]);
///
/// For a full graph, row v spans [offsets[v], offsets[v+1]): `*_begin` and
/// `*_end` alias the same offsets array shifted by one. For a snapshot view,
/// `*_end` points at per-row prefix limits (see AccessOf(view)) while
/// `*_begin` and the neighbor/edge indexing still alias the *parent* CSR —
/// edge ids p are parent edge ids, so full-CSR-sized per-edge weight arrays
/// (e.g. the cached TWPR decay weights) index directly.
///
/// Borrows everything; the source graph/view (and ViewRowEnds) must outlive
/// the access struct.
struct GraphAccess {
  size_t num_nodes = 0;
  const Year* years = nullptr;
  const EdgeId* out_begin = nullptr;
  const EdgeId* out_end = nullptr;
  const NodeId* out_neighbors = nullptr;
  const EdgeId* in_begin = nullptr;
  const EdgeId* in_end = nullptr;
  const NodeId* in_neighbors = nullptr;

  size_t OutDegree(NodeId u) const {
    return static_cast<size_t>(out_end[u] - out_begin[u]);
  }
  size_t InDegree(NodeId v) const {
    return static_cast<size_t>(in_end[v] - in_begin[v]);
  }
};

/// Whole-graph access: aliases the graph's own CSR arrays, zero setup cost.
GraphAccess AccessOf(const CitationGraph& graph);

/// Backing storage for a view's per-row prefix limits. Reusable across
/// views; resized on each AccessOf.
struct ViewRowEnds {
  std::vector<EdgeId> out_end;
  std::vector<EdgeId> in_end;
};

/// Snapshot-view access: fills `rows` with the view's per-row kept-prefix
/// end offsets (one binary search per row) and returns pointers into them
/// plus the parent CSR. O(V log d) setup, no edge data copied.
GraphAccess AccessOf(const SnapshotView& view, ViewRowEnds* rows);

}  // namespace scholar

#endif  // SCHOLARRANK_GRAPH_GRAPH_ACCESS_H_
