#ifndef SCHOLARRANK_GRAPH_TEMPORAL_CSR_H_
#define SCHOLARRANK_GRAPH_TEMPORAL_CSR_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/citation_graph.h"
#include "graph/types.h"

namespace scholar {

class SnapshotView;

/// Build-once time-prefix CSR over a citation graph, in publication order.
///
/// Accumulative snapshots G_1 ⊆ G_2 ⊆ ... ⊆ G_k along the time axis are
/// nested prefixes of one relabeled graph: sort nodes by publication year
/// and every snapshot "articles published through year T" becomes the id
/// range [0, NodesThrough(T)). Because adjacency rows of the relabeled graph
/// are sorted ascending by (permuted) endpoint id — i.e. by endpoint year —
/// the neighbors a snapshot keeps are a prefix of each row, recoverable with
/// one binary search against the snapshot's node count. One immutable edge
/// array therefore serves all k snapshots: memory goes from k·(V+E) for
/// materialized copies to V+E (+k boundary offsets) shared by every view.
///
/// Within each year, articles are ordered topologically over their
/// same-year references (Kahn's algorithm, smallest ready parent id first),
/// so a reference normally points to a smaller sorted id and the linear
/// rankers solve y = b + d·P̃ᵀy in one descending pass (rank/pagerank.h).
/// When no article of the year is ready (the rest waits on same-year
/// cycles), the smallest remaining parent id of the year goes next, even
/// if it only cites into a cycle rather than lying on one; this keeps the
/// order idempotent (below). The references that still point to a larger
/// sorted id — those of articles placed this way, backward
/// ("time-travel") citations and citations from unknown-year articles —
/// are left for the solver's repeated passes.
///
/// When the parent's ids already have this order (true for every corpus
/// this library generates and every stream graph, where ids are assigned in
/// publication order and only cite older ids) the permutation is the
/// identity and the parent graph itself is shared by pointer: building the
/// index is then a single O(V + E) scan and views are bit-compatible with
/// the parent's node numbering. The order is idempotent, so the
/// materialized snapshot of a view takes the identity path too and ranks
/// bit-for-bit like the view.
///
/// Thread-safety: immutable after construction; concurrent reads (including
/// concurrent MakeView calls) are safe.
class TemporalCsr {
 public:
  /// Indexes `parent`. The caller keeps `parent` alive for the lifetime of
  /// this object and of every view created from it.
  explicit TemporalCsr(const CitationGraph& parent);

  /// The year-sorted relabeling of the parent (the parent itself when the
  /// permutation is the identity). Snapshot views are prefixes of this graph.
  const CitationGraph& sorted_graph() const { return *sorted_; }

  /// True when the parent's node ids were already in publication order and
  /// no relabeling was needed.
  bool is_identity() const { return identity_; }

  /// Parent id of sorted id `s` / sorted id of parent id `p`.
  NodeId ToParent(NodeId s) const { return identity_ ? s : to_parent_[s]; }
  NodeId FromParent(NodeId p) const { return identity_ ? p : from_parent_[p]; }

  /// Number of nodes published in or before `boundary_year` — the node count
  /// of that snapshot, and the exclusive end of its sorted-id prefix.
  /// Nodes with unknown year sort first and belong to every snapshot.
  size_t NodesThrough(Year boundary_year) const;

  /// O(log k) zero-copy snapshot of all articles published through
  /// `boundary_year` (k = number of distinct years). The view borrows this
  /// index and is valid for its lifetime.
  SnapshotView MakeView(Year boundary_year) const;

  /// View of every article (the whole sorted graph).
  SnapshotView FullView() const;

  /// Bytes owned by this index beyond the parent graph: the permutation
  /// arrays, the boundary offsets, and (only when the permutation is not the
  /// identity) the relabeled graph. This is the entire per-ensemble snapshot
  /// structure cost; compare with k materialized CitationGraph copies.
  size_t ApproxBytes() const;

 private:
  const CitationGraph* sorted_ = nullptr;  // owned_sorted_ or the parent
  CitationGraph owned_sorted_;             // only populated when !identity_
  bool identity_ = false;
  std::vector<NodeId> to_parent_;    // empty when identity_
  std::vector<NodeId> from_parent_;  // empty when identity_
  // Per-boundary prefix offsets: distinct years ascending and, aligned with
  // them, how many sorted ids fall in or before each year.
  std::vector<Year> distinct_years_;
  std::vector<size_t> nodes_through_;
};

/// Zero-copy accumulative snapshot: the first `num_nodes()` ids of a
/// TemporalCsr's sorted graph. O(1) to copy, nothing owned. Adjacency spans
/// are prefixes of the sorted graph's rows: a neighbor id `>= num_nodes()`
/// lies outside the snapshot, and because rows are sorted ascending the kept
/// neighbors are exactly the row prefix below that bound (found by binary
/// search in Out/InDegree).
class SnapshotView {
 public:
  /// Empty view over nothing (num_nodes() == 0).
  SnapshotView() = default;

  SnapshotView(const TemporalCsr* tcsr, size_t node_count, Year boundary_year)
      : tcsr_(tcsr), num_nodes_(node_count), boundary_year_(boundary_year) {}

  size_t num_nodes() const { return num_nodes_; }

  /// The boundary year this view was created for; kUnknownYear for an empty
  /// view (mirroring ExtractSnapshot's empty-snapshot contract).
  Year boundary_year() const { return boundary_year_; }

  /// Index this view borrows from; null only for a default-constructed view.
  const TemporalCsr* temporal_csr() const { return tcsr_; }

  /// Publication year of view node `s` (a sorted id).
  Year year(NodeId s) const { return tcsr_->sorted_graph().year(s); }

  /// All years of the sorted graph; only the first num_nodes() entries
  /// belong to this view.
  const std::vector<Year>& parent_years() const {
    return tcsr_->sorted_graph().years();
  }

  /// Latest publication year in the view (== boundary clamp); kUnknownYear
  /// when empty.
  Year max_year() const {
    return num_nodes_ == 0 ? kUnknownYear
                           : tcsr_->sorted_graph().year(
                                 static_cast<NodeId>(num_nodes_ - 1));
  }

  /// Earliest publication year in the view; kUnknownYear when empty.
  Year min_year() const {
    return num_nodes_ == 0 ? kUnknownYear : tcsr_->sorted_graph().year(0);
  }

  /// References of `u` kept by this snapshot: the prefix of the sorted row
  /// with endpoint id < num_nodes().
  std::span<const NodeId> References(NodeId u) const {
    std::span<const NodeId> row = tcsr_->sorted_graph().References(u);
    return row.first(PrefixLength(row));
  }

  /// Citers of `v` kept by this snapshot.
  std::span<const NodeId> Citers(NodeId v) const {
    std::span<const NodeId> row = tcsr_->sorted_graph().Citers(v);
    return row.first(PrefixLength(row));
  }

  size_t OutDegree(NodeId u) const { return References(u).size(); }
  size_t InDegree(NodeId v) const { return Citers(v).size(); }

  /// Parent-graph id of view node `s` and back. Arithmetic on the
  /// permutation — no per-view id maps exist.
  NodeId ToParent(NodeId s) const { return tcsr_->ToParent(s); }
  NodeId FromParent(NodeId p) const { return tcsr_->FromParent(p); }

  /// Number of edges the snapshot keeps (O(V log d) count, not stored).
  size_t CountEdges() const;

 private:
  // Length of the kept prefix of a sorted adjacency row: neighbors are
  // ascending, so everything below num_nodes_ survives the time cut.
  size_t PrefixLength(std::span<const NodeId> row) const {
    const NodeId bound = static_cast<NodeId>(num_nodes_);
    if (row.empty() || row.back() < bound) return row.size();
    return static_cast<size_t>(
        std::lower_bound(row.begin(), row.end(), bound) - row.begin());
  }

  const TemporalCsr* tcsr_ = nullptr;
  size_t num_nodes_ = 0;
  Year boundary_year_ = kUnknownYear;
};

}  // namespace scholar

#endif  // SCHOLARRANK_GRAPH_TEMPORAL_CSR_H_
