#ifndef SCHOLARRANK_GRAPH_GRAPH_BUILDER_H_
#define SCHOLARRANK_GRAPH_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "graph/citation_graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace scholar {

/// Mutable accumulator that validates and finalizes a CitationGraph.
///
/// Usage:
///   GraphBuilder b;
///   NodeId a = b.AddNode(1998);
///   NodeId c = b.AddNode(2004);
///   SCHOLAR_RETURN_NOT_OK(b.AddEdge(c, a));   // c cites a
///   SCHOLAR_ASSIGN_OR_RETURN(auto g, std::move(b).Build());
class GraphBuilder {
 public:
  struct Options {
    /// Drop duplicate (u,v) pairs instead of failing.
    bool dedup_parallel_edges = true;
    /// Drop self-citations (u,u) instead of failing.
    bool drop_self_loops = true;
    /// Reject edges where the citing article is older than the cited one
    /// (time-travel citations). Real datasets contain a few (errata,
    /// simultaneous publication), so the default is permissive.
    bool forbid_backward_time_edges = false;
  };

  GraphBuilder() = default;
  explicit GraphBuilder(Options options) : options_(options) {}

  /// Adds an article; returns its dense id (assigned sequentially).
  NodeId AddNode(Year year);

  /// Adds `count` articles all published in `year`; returns the first id.
  NodeId AddNodes(size_t count, Year year);

  /// Records citation u -> v. Both endpoints must already exist.
  Status AddEdge(NodeId u, NodeId v) {
    // Inline for the common valid edge: loaders add millions of them.
    if (u >= years_.size() || v >= years_.size() || u == v ||
        options_.forbid_backward_time_edges) {
      return AddCheckedEdge(u, v);
    }
    edges_.emplace_back(u, v);
    return Status::OK();
  }

  /// Bulk variant of AddEdge.
  Status AddEdges(const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Capacity hint: room for `count` more AddEdge calls without regrowth.
  void ReserveEdges(size_t count);

  size_t num_nodes() const { return years_.size(); }
  /// Edges recorded so far (before dedup/self-loop filtering).
  size_t num_pending_edges() const { return edges_.size(); }

  /// Finalizes into an immutable CSR graph with sorted rows. Consumes the
  /// builder. Linear in the edge count apart from sorting each row; with
  /// dedup off, fails on the smallest duplicated (u, v) pair.
  Result<CitationGraph> Build() &&;

 private:
  /// AddEdge for every edge that needs more than the common-case checks.
  Status AddCheckedEdge(NodeId u, NodeId v);

  Options options_;
  std::vector<Year> years_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_GRAPH_GRAPH_BUILDER_H_
