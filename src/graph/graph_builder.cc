#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace scholar {

NodeId GraphBuilder::AddNode(Year year) {
  years_.push_back(year);
  return static_cast<NodeId>(years_.size() - 1);
}

NodeId GraphBuilder::AddNodes(size_t count, Year year) {
  NodeId first = static_cast<NodeId>(years_.size());
  years_.insert(years_.end(), count, year);
  return first;
}

Status GraphBuilder::AddCheckedEdge(NodeId u, NodeId v) {
  if (u >= years_.size() || v >= years_.size()) {
    return Status::InvalidArgument(
        "edge (" + std::to_string(u) + "," + std::to_string(v) +
        ") references a node beyond " + std::to_string(years_.size()));
  }
  if (u == v) {
    if (options_.drop_self_loops) return Status::OK();
    return Status::InvalidArgument("self-citation at node " +
                                   std::to_string(u));
  }
  if (options_.forbid_backward_time_edges && years_[u] < years_[v]) {
    return Status::InvalidArgument(
        "time-travel citation: node " + std::to_string(u) + " (year " +
        std::to_string(years_[u]) + ") cites node " + std::to_string(v) +
        " (year " + std::to_string(years_[v]) + ")");
  }
  edges_.emplace_back(u, v);
  return Status::OK();
}

Status GraphBuilder::AddEdges(
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  for (const auto& [u, v] : edges) {
    SCHOLAR_RETURN_NOT_OK(AddEdge(u, v));
  }
  return Status::OK();
}

void GraphBuilder::ReserveEdges(size_t count) {
  edges_.reserve(edges_.size() + count);
}

Result<CitationGraph> GraphBuilder::Build() && {
  // Counting sort by source: rows keep insertion order, then each row is
  // sorted and deduplicated on its own, so no step sorts all m edges.
  const size_t n = years_.size();
  std::vector<EdgeId> offsets(n + 1, 0);
  for (const auto& [u, v] : edges_) ++offsets[u + 1];
  for (size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> neighbors(edges_.size());
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& [u, v] : edges_) neighbors[cursor[u]++] = v;
  }
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);

  // Rows are visited in source order and sorted, so the first repeat found
  // is the smallest duplicated (u, v) pair.
  EdgeId row_begin = 0;
  EdgeId kept = 0;
  for (size_t u = 0; u < n; ++u) {
    NodeId* first = neighbors.data() + row_begin;
    NodeId* last = neighbors.data() + offsets[u + 1];
    row_begin = offsets[u + 1];
    std::sort(first, last);
    if (options_.dedup_parallel_edges) {
      last = std::unique(first, last);
    } else if (NodeId* dup = std::adjacent_find(first, last); dup != last) {
      return Status::InvalidArgument("duplicate citation (" +
                                     std::to_string(u) + "," +
                                     std::to_string(*dup) + ")");
    }
    NodeId* out = neighbors.data() + kept;
    if (out != first) std::copy(first, last, out);
    kept += static_cast<EdgeId>(last - first);
    offsets[u + 1] = kept;
  }
  if (kept != neighbors.size()) {
    neighbors.resize(kept);
    neighbors.shrink_to_fit();
  }

  return CitationGraph::FromCsr(std::move(years_), std::move(offsets),
                                std::move(neighbors));
}

}  // namespace scholar
