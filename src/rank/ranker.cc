#include "rank/ranker.h"

#include <algorithm>
#include <numeric>

#include "graph/temporal_csr.h"

namespace scholar {

size_t RankContext::NumNodes() const {
  if (graph != nullptr) return graph->num_nodes();
  return view != nullptr ? view->num_nodes() : 0;
}

Year RankContext::EffectiveNow() const {
  if (now_year != kUnknownYear) return now_year;
  return graph != nullptr ? graph->max_year() : view->max_year();
}

NodeId RankContext::ToParent(NodeId s) const {
  return view != nullptr ? view->ToParent(s) : s;
}

Ranker::~Ranker() = default;

namespace {

/// Node ids sorted by descending score, ties by ascending id.
std::vector<NodeId> SortedByScore(const std::vector<double>& scores) {
  std::vector<NodeId> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return scores[a] > scores[b];
  });
  return order;
}

}  // namespace

std::vector<uint32_t> ScoresToRanks(const std::vector<double>& scores) {
  std::vector<NodeId> order = SortedByScore(scores);
  std::vector<uint32_t> ranks(scores.size());
  for (uint32_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return ranks;
}

std::vector<double> RankPercentiles(const std::vector<double>& scores) {
  const size_t n = scores.size();
  std::vector<double> pct(n, 0.0);
  if (n == 0) return pct;
  std::vector<NodeId> order = SortedByScore(scores);
  for (size_t r = 0; r < n; ++r) {
    pct[order[r]] = static_cast<double>(n - r) / static_cast<double>(n);
  }
  return pct;
}

std::vector<double> MidrankPercentiles(const std::vector<double>& scores) {
  const size_t n = scores.size();
  std::vector<double> pct(n, 0.0);
  if (n == 0) return pct;
  std::vector<NodeId> order = SortedByScore(scores);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    // Scores are bit-identical at any thread count, so ties are exact ties.
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;  // NOLINT(float-compare): exact equality is the tie contract
    // 1-based positions i+1 .. j+1 share their average position.
    const double mid_pos = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    const double shared = (static_cast<double>(n) - mid_pos + 1.0) / static_cast<double>(n);
    for (size_t t = i; t <= j; ++t) pct[order[t]] = shared;
    i = j + 1;
  }
  return pct;
}

std::vector<NodeId> TopK(const std::vector<double>& scores, size_t k) {
  k = std::min(k, scores.size());  // clamp: k > n just means "all of them"
  std::vector<NodeId> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  // Partial selection: O(n + k log k) beats the full sort when k << n,
  // which is the common case (top-50 of a multi-million-article corpus).
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(k), order.end(),
                    [&](NodeId a, NodeId b) {
                      // Deterministic tie-break; exact compare is intended
                      // under the bit-identity contract.
                      if (scores[a] != scores[b]) return scores[a] > scores[b];  // NOLINT(float-compare): exact tie-break under the bit-identity contract
                      return a < b;
                    });
  order.resize(k);
  return order;
}

Status ValidateContext(const RankContext& ctx, bool requires_authors,
                       bool requires_venues) {
  if (ctx.graph == nullptr && ctx.view == nullptr) {
    return Status::InvalidArgument("RankContext.graph is null");
  }
  if (ctx.graph != nullptr && ctx.view != nullptr) {
    return Status::InvalidArgument(
        "RankContext sets both graph and view; set exactly one");
  }
  const size_t n = ctx.NumNodes();
  // authors and venues are indexed by parent id, so under a view they cover
  // the view's whole parent graph.
  const size_t parent_n =
      ctx.view != nullptr && ctx.view->temporal_csr() != nullptr
          ? ctx.view->temporal_csr()->sorted_graph().num_nodes()
          : n;
  if (requires_authors) {
    if (ctx.authors == nullptr) {
      return Status::InvalidArgument(
          "this ranker requires a paper-author map (RankContext.authors)");
    }
    if (ctx.authors->num_papers() != parent_n) {
      return Status::InvalidArgument(
          "author map covers " + std::to_string(ctx.authors->num_papers()) +
          " papers but graph has " + std::to_string(parent_n));
    }
  }
  if (requires_venues) {
    if (ctx.venues == nullptr) {
      return Status::InvalidArgument(
          "this ranker requires per-article venues (RankContext.venues)");
    }
    if (ctx.venues->size() != parent_n) {
      return Status::InvalidArgument(
          "venue vector covers " + std::to_string(ctx.venues->size()) +
          " articles but graph has " + std::to_string(parent_n));
    }
  }
  if (ctx.initial_scores != nullptr && ctx.initial_scores->size() != n) {
    return Status::InvalidArgument(
        "initial_scores has " + std::to_string(ctx.initial_scores->size()) +
        " entries but graph has " + std::to_string(n));
  }
  return Status::OK();
}

GraphAccess AccessOf(const RankContext& ctx, ViewRowEnds* rows) {
  return ctx.view != nullptr ? AccessOf(*ctx.view, rows)
                             : AccessOf(*ctx.graph);
}

}  // namespace scholar
