#ifndef SCHOLARRANK_TESTS_TEST_UTIL_H_
#define SCHOLARRANK_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/citation_graph.h"
#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/rng.h"

namespace scholar {
namespace testing_util {

/// Builds a graph from explicit (year list, edge list). Aborts on invalid
/// input — tests construct valid fixtures.
inline CitationGraph MakeGraph(
    const std::vector<Year>& years,
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder builder;
  for (Year y : years) builder.AddNode(y);
  SCHOLAR_CHECK_OK(builder.AddEdges(edges));
  Result<CitationGraph> g = std::move(builder).Build();
  SCHOLAR_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Random citation-style DAG: node ids ascend with year; each node cites
/// `avg_degree` earlier nodes on average (uniformly chosen).
inline CitationGraph MakeRandomGraph(size_t n, double avg_degree,
                                     Year start_year, int num_years,
                                     uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder;
  for (size_t i = 0; i < n; ++i) {
    Year y = start_year +
             static_cast<Year>(i * static_cast<size_t>(num_years) / n);
    builder.AddNode(y);
  }
  for (NodeId u = 1; u < n; ++u) {
    size_t degree = rng.NextBounded(static_cast<uint64_t>(2 * avg_degree) + 1);
    for (size_t d = 0; d < degree; ++d) {
      NodeId v = static_cast<NodeId>(rng.NextBounded(u));
      SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
    }
  }
  Result<CitationGraph> g = std::move(builder).Build();
  SCHOLAR_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Random graph whose node ids are NOT year-sorted: years are assigned
/// independently of id, so TemporalCsr must take its permutation path
/// (MakeRandomGraph's graphs are year-monotone and hit the identity fast
/// path instead). A few time-travel citations are kept deliberately —
/// real datasets contain them and snapshots must agree on them too.
inline CitationGraph MakeShuffledYearGraph(size_t n, double avg_degree,
                                           Year start_year, int num_years,
                                           uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder;
  for (size_t i = 0; i < n; ++i) {
    builder.AddNode(start_year +
                    static_cast<Year>(rng.NextBounded(
                        static_cast<uint64_t>(num_years))));
  }
  for (NodeId u = 0; u < n; ++u) {
    size_t degree = rng.NextBounded(static_cast<uint64_t>(2 * avg_degree) + 1);
    for (size_t d = 0; d < degree; ++d) {
      NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (v == u) continue;
      SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
    }
  }
  Result<CitationGraph> g = std::move(builder).Build();
  SCHOLAR_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// Builds a graph straight from (year list, edge list) through the trusted
/// CSR factory, so duplicate references survive (GraphBuilder would drop
/// them). Rows are sorted; self-citations are not allowed.
inline CitationGraph MakeMultiGraph(
    const std::vector<Year>& years,
    const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::vector<NodeId>> rows(years.size());
  for (const auto& [u, v] : edges) {
    SCHOLAR_CHECK(u != v && u < years.size() && v < years.size());
    rows[u].push_back(v);
  }
  std::vector<EdgeId> offsets = {0};
  std::vector<NodeId> neighbors;
  for (std::vector<NodeId>& row : rows) {
    std::sort(row.begin(), row.end());
    neighbors.insert(neighbors.end(), row.begin(), row.end());
    offsets.push_back(neighbors.size());
  }
  return CitationGraph::FromCsr(years, std::move(offsets),
                                std::move(neighbors));
}

/// A hand-built graph with the dirt real citation dumps carry:
///
///   0 -> 1 -> 2 -> 3   a same-year (2001) chain in reverse id order
///   4 -> 5 -> 6 -> 4   a same-year (2002) 3-cycle
///   7 -> 8             a backward citation: 7 (2000) cites 8 (2003)
///   9                  unknown year; cites 0 and is cited by 10
///   10 -> 4, 4, 9      duplicate references, and one to the unknown year
///   11                 dangling (2002), cited by 12
///   12 -> 11, 13       13 (2001) cites 1
///   14 -> 9            its only reference goes to the unknown year, so its
///                      TWPR weight exp(-sigma * ~2^31) underflows to 0
///   15                 isolated (2001)
inline CitationGraph MakeDirtyGraph() {
  return MakeMultiGraph(
      {2001, 2001, 2001, 2001, 2002, 2002, 2002, 2000, 2003, kUnknownYear,
       2003, 2002, 2004, 2001, 2004, 2001},
      {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 4}, {7, 8}, {9, 0},
       {10, 4}, {10, 4}, {10, 9}, {12, 11}, {12, 13}, {13, 1}, {14, 9},
       {3, 7}, {8, 6}});
}

/// Seeded random citation graph that mixes the dirt of MakeDirtyGraph into
/// MakeRandomGraph's year-ordered DAG, then shuffles the ids: about 2% of
/// references point to one of the next 50 ids (same-year references to a
/// larger id, some closing cycles, and backward citations across a year
/// boundary), 1% of articles have unknown years, 1% of references are
/// duplicated, and sparse rows leave dangling and isolated articles.
inline CitationGraph MakeRandomDirtyGraph(size_t n, double avg_degree,
                                          Year start_year, int num_years,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Year> years(n);
  for (size_t i = 0; i < n; ++i) {
    years[i] = rng.NextBounded(100) == 0
                   ? kUnknownYear
                   : start_year + static_cast<Year>(
                                      i * static_cast<size_t>(num_years) / n);
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) {
    const size_t degree =
        rng.NextBounded(static_cast<uint64_t>(2 * avg_degree) + 1);
    for (size_t d = 0; d < degree; ++d) {
      NodeId v;
      if (rng.NextBounded(50) == 0 && u + 1 < n) {
        v = u + 1 + static_cast<NodeId>(
                        rng.NextBounded(std::min<uint64_t>(n - u - 1, 50)));
      } else if (u > 0) {
        v = static_cast<NodeId>(rng.NextBounded(u));
      } else {
        continue;
      }
      edges.push_back({u, v});
      if (rng.NextBounded(100) == 0) edges.push_back({u, v});
    }
  }
  std::vector<NodeId> relabel(n);
  for (NodeId i = 0; i < n; ++i) relabel[i] = i;
  rng.Shuffle(&relabel);
  std::vector<Year> shuffled_years(n);
  for (NodeId i = 0; i < n; ++i) shuffled_years[relabel[i]] = years[i];
  for (auto& [u, v] : edges) {
    u = relabel[u];
    v = relabel[v];
  }
  return MakeMultiGraph(shuffled_years, edges);
}

/// References of `g` that point to an id at or above their citer's — the
/// ones a single descending pass cannot carry. On a TemporalCsr's sorted
/// graph these are what the publication order leaves upward.
inline size_t CountUpwardReferences(const CitationGraph& g) {
  size_t upward = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.References(u)) upward += v >= u;
  }
  return upward;
}

/// The 5-node teaching graph used across several tests:
///
///   years:  0:2000  1:2001  2:2002  3:2003  4:2004
///   edges:  2->0, 2->1, 3->0, 3->2, 4->2, 4->3   (u cites v)
inline CitationGraph MakeTinyGraph() {
  return MakeGraph({2000, 2001, 2002, 2003, 2004},
                   {{2, 0}, {2, 1}, {3, 0}, {3, 2}, {4, 2}, {4, 3}});
}

}  // namespace testing_util
}  // namespace scholar

#endif  // SCHOLARRANK_TESTS_TEST_UTIL_H_
