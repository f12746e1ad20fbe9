#include "graph/temporal_csr.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace scholar {

namespace {

/// True when every same-year reference of the parent points to a smaller
/// id, so parent order is already topological within each year.
bool SameYearReferencesPointDown(const CitationGraph& parent) {
  const std::vector<Year>& years = parent.years();
  for (NodeId u = 0; u < parent.num_nodes(); ++u) {
    for (NodeId v : parent.References(u)) {
      if (v >= u && years[v] == years[u]) return false;
    }
  }
  return true;
}

/// Parent ids in publication order: a stable year sort, then each year in
/// the lexicographically smallest topological order of its same-year
/// references (every reference before its citer). When nothing is ready,
/// the smallest remaining parent id of the year goes next, whether it lies
/// on a same-year cycle or only cites into one. Positions inside a year
/// ascend with parent id, so a scan over them plus a min-heap of the
/// positions that became ready after the scan passed them yields the
/// smallest ready id. Only the same-year references (about 2% on real
/// corpora) are indexed, so the order costs one pass over the references
/// plus O(V + E_same_year + H log H), H being the few out-of-order
/// articles.
std::vector<NodeId> PublicationOrder(const CitationGraph& parent) {
  const size_t n = parent.num_nodes();
  const std::vector<Year>& years = parent.years();
  std::vector<NodeId> by_year(n);
  std::iota(by_year.begin(), by_year.end(), NodeId{0});
  std::stable_sort(
      by_year.begin(), by_year.end(),
      [&years](NodeId a, NodeId b) { return years[a] < years[b]; });
  std::vector<NodeId> position(n);
  for (NodeId i = 0; i < n; ++i) position[by_year[i]] = i;

  // Same-year citers of each position (CSR), and each position's count of
  // same-year references not yet placed.
  std::vector<uint32_t> waiting(n, 0);
  std::vector<EdgeId> citers_begin(n + 1, 0);
  std::vector<std::pair<NodeId, NodeId>> same_year;  // (cited, citer)
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : parent.References(u)) {
      if (years[v] != years[u]) continue;
      same_year.push_back({position[v], position[u]});
      ++waiting[position[u]];
      ++citers_begin[position[v] + 1];
    }
  }
  for (size_t i = 0; i < n; ++i) citers_begin[i + 1] += citers_begin[i];
  std::vector<NodeId> citers(same_year.size());
  std::vector<EdgeId> cursor(citers_begin.begin(), citers_begin.end() - 1);
  for (const auto& [cited, citer] : same_year) citers[cursor[cited]++] = citer;

  std::vector<NodeId> order(n);
  std::vector<uint8_t> placed(n, 0);
  std::vector<NodeId> ready;  // min-heap of positions behind the scan
  for (size_t begin = 0; begin < n;) {
    size_t end = begin;
    while (end < n && years[by_year[end]] == years[by_year[begin]]) ++end;
    size_t scan = begin;
    size_t lowest = begin;  // no unplaced position lies below this
    for (size_t out = begin; out < end; ++out) {
      size_t pick;
      while (scan < end && waiting[scan] != 0) ++scan;
      if (!ready.empty()) {
        std::pop_heap(ready.begin(), ready.end(), std::greater<>());
        pick = ready.back();
        ready.pop_back();
      } else if (scan < end) {
        pick = scan++;
      } else {
        // Nothing is ready, so the rest of the year waits on same-year
        // cycles: the smallest remaining parent id goes next.
        while (placed[lowest]) ++lowest;
        pick = lowest;
      }
      placed[pick] = 1;
      order[out] = by_year[pick];
      for (EdgeId e = citers_begin[pick]; e < citers_begin[pick + 1]; ++e) {
        const NodeId q = citers[e];
        if (!placed[q] && --waiting[q] == 0 && q < scan) {
          ready.push_back(q);
          std::push_heap(ready.begin(), ready.end(), std::greater<>());
        }
      }
    }
    begin = end;
  }
  return order;
}

}  // namespace

TemporalCsr::TemporalCsr(const CitationGraph& parent) {
  const size_t n = parent.num_nodes();
  const std::vector<Year>& parent_years = parent.years();

  identity_ = std::is_sorted(parent_years.begin(), parent_years.end()) &&
              SameYearReferencesPointDown(parent);
  if (!identity_) {
    to_parent_ = PublicationOrder(parent);
    identity_ = true;
    for (NodeId s = 0; s < n && identity_; ++s) identity_ = to_parent_[s] == s;
    if (identity_) to_parent_.clear();
  }
  if (identity_) {
    sorted_ = &parent;
  } else {
    from_parent_.resize(n);
    for (NodeId s = 0; s < n; ++s) from_parent_[to_parent_[s]] = s;

    std::vector<Year> years(n);
    std::vector<EdgeId> offsets(n + 1, 0);
    for (NodeId s = 0; s < n; ++s) {
      years[s] = parent_years[to_parent_[s]];
      offsets[s + 1] = offsets[s] + parent.OutDegree(to_parent_[s]);
    }
    // Emitting targets in ascending sorted order through per-source cursors
    // leaves every relabeled row sorted ascending — the prefix property
    // SnapshotView's binary search relies on.
    std::vector<NodeId> neighbors(parent.num_edges());
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId pu : parent.Citers(to_parent_[v])) {
        neighbors[cursor[from_parent_[pu]]++] = v;
      }
    }
    owned_sorted_ = CitationGraph::FromCsr(std::move(years), std::move(offsets),
                                           std::move(neighbors));
    sorted_ = &owned_sorted_;
  }

  const std::vector<Year>& sorted_years = sorted_->years();
  for (size_t i = 0; i < n; ++i) {
    if (i + 1 == n || sorted_years[i + 1] != sorted_years[i]) {
      distinct_years_.push_back(sorted_years[i]);
      nodes_through_.push_back(i + 1);
    }
  }
}

size_t TemporalCsr::NodesThrough(Year boundary_year) const {
  // Nodes with kUnknownYear sort first (the sentinel is INT32_MIN) and are
  // kept by every snapshot, matching ExtractSnapshot's keep-unknown policy.
  auto it = std::upper_bound(distinct_years_.begin(), distinct_years_.end(),
                             boundary_year);
  if (it == distinct_years_.begin()) return 0;
  return nodes_through_[static_cast<size_t>(it - distinct_years_.begin()) - 1];
}

SnapshotView TemporalCsr::MakeView(Year boundary_year) const {
  const size_t count = NodesThrough(boundary_year);
  return SnapshotView(this, count, count == 0 ? kUnknownYear : boundary_year);
}

SnapshotView TemporalCsr::FullView() const {
  const size_t n = sorted_->num_nodes();
  return SnapshotView(this, n, n == 0 ? kUnknownYear : distinct_years_.back());
}

size_t TemporalCsr::ApproxBytes() const {
  size_t bytes = to_parent_.size() * sizeof(NodeId) +
                 from_parent_.size() * sizeof(NodeId) +
                 distinct_years_.size() * sizeof(Year) +
                 nodes_through_.size() * sizeof(size_t);
  if (!identity_) {
    bytes += owned_sorted_.years().size() * sizeof(Year) +
             owned_sorted_.out_offsets().size() * sizeof(EdgeId) +
             owned_sorted_.out_neighbors().size() * sizeof(NodeId) +
             owned_sorted_.in_offsets().size() * sizeof(EdgeId) +
             owned_sorted_.in_neighbors().size() * sizeof(NodeId);
  }
  return bytes;
}

size_t SnapshotView::CountEdges() const {
  size_t edges = 0;
  for (NodeId u = 0; u < num_nodes_; ++u) edges += OutDegree(u);
  return edges;
}

}  // namespace scholar
