#include "graph/graph_access.h"

#include "graph/temporal_csr.h"

namespace scholar {

GraphAccess AccessOf(const CitationGraph& graph) {
  GraphAccess a;
  a.num_nodes = graph.num_nodes();
  a.years = graph.years().data();
  a.out_begin = graph.out_offsets().data();
  a.out_end = graph.out_offsets().data() + 1;
  a.out_neighbors = graph.out_neighbors().data();
  a.in_begin = graph.in_offsets().data();
  a.in_end = graph.in_offsets().data() + 1;
  a.in_neighbors = graph.in_neighbors().data();
  return a;
}

GraphAccess AccessOf(const SnapshotView& view, ViewRowEnds* rows) {
  GraphAccess a;
  const size_t n = view.num_nodes();
  a.num_nodes = n;
  if (n == 0) return a;

  const CitationGraph& g = view.temporal_csr()->sorted_graph();
  rows->out_end.resize(n);
  rows->in_end.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    rows->out_end[u] = g.out_offsets()[u] + view.OutDegree(u);
    rows->in_end[u] = g.in_offsets()[u] + view.InDegree(u);
  }
  a.years = g.years().data();
  a.out_begin = g.out_offsets().data();
  a.out_end = rows->out_end.data();
  a.out_neighbors = g.out_neighbors().data();
  a.in_begin = g.in_offsets().data();
  a.in_end = rows->in_end.data();
  a.in_neighbors = g.in_neighbors().data();
  return a;
}

}  // namespace scholar
