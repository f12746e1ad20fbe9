#include "graph/temporal_csr.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "graph/time_slicer.h"
#include "rank/hits.h"
#include "rank/katz.h"
#include "rank/pagerank.h"
#include "rank/sceas.h"
#include "rank/time_weighted_pagerank.h"
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::CountUpwardReferences;
using testing_util::MakeGraph;
using testing_util::MakeRandomGraph;
using testing_util::MakeShuffledYearGraph;
using testing_util::MakeTinyGraph;

TEST(TemporalCsrTest, YearMonotoneGraphTakesIdentityFastPath) {
  CitationGraph g = MakeRandomGraph(300, 3.0, 1990, 12, 7);
  TemporalCsr tcsr(g);
  EXPECT_TRUE(tcsr.is_identity());
  // The sorted graph IS the parent — no copy was made.
  EXPECT_EQ(&tcsr.sorted_graph(), &g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(tcsr.ToParent(v), v);
    EXPECT_EQ(tcsr.FromParent(v), v);
  }
}

TEST(TemporalCsrTest, ShuffledGraphIsPermutedAndSorted) {
  CitationGraph g = MakeShuffledYearGraph(400, 3.0, 1990, 15, 11);
  TemporalCsr tcsr(g);
  ASSERT_FALSE(tcsr.is_identity());
  const CitationGraph& sg = tcsr.sorted_graph();
  ASSERT_EQ(sg.num_nodes(), g.num_nodes());
  ASSERT_EQ(sg.num_edges(), g.num_edges());

  // Sorted ids ascend with year, and the permutation is a bijection that
  // preserves years.
  for (NodeId s = 0; s < sg.num_nodes(); ++s) {
    if (s > 0) EXPECT_LE(sg.year(s - 1), sg.year(s));
    EXPECT_EQ(sg.year(s), g.year(tcsr.ToParent(s)));
    EXPECT_EQ(tcsr.FromParent(tcsr.ToParent(s)), s);
  }

  // The edge sets agree under the permutation.
  std::set<std::pair<NodeId, NodeId>> parent_edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.References(u)) parent_edges.insert({u, v});
  }
  std::set<std::pair<NodeId, NodeId>> mapped_edges;
  for (NodeId s = 0; s < sg.num_nodes(); ++s) {
    for (NodeId t : sg.References(s)) {
      mapped_edges.insert({tcsr.ToParent(s), tcsr.ToParent(t)});
    }
  }
  EXPECT_EQ(parent_edges, mapped_edges);
}

TEST(TemporalCsrTest, NodesThroughMatchesYearCounts) {
  CitationGraph g = MakeTinyGraph();  // years 2000..2004, one node each
  TemporalCsr tcsr(g);
  EXPECT_EQ(tcsr.NodesThrough(1999), 0u);
  EXPECT_EQ(tcsr.NodesThrough(2000), 1u);
  EXPECT_EQ(tcsr.NodesThrough(2002), 3u);
  EXPECT_EQ(tcsr.NodesThrough(2004), 5u);
  EXPECT_EQ(tcsr.NodesThrough(2050), 5u);
}

TEST(TemporalCsrTest, EmptyViewReportsUnknownBoundaryYear) {
  CitationGraph g = MakeTinyGraph();
  TemporalCsr tcsr(g);
  SnapshotView view = tcsr.MakeView(1999);
  EXPECT_EQ(view.num_nodes(), 0u);
  EXPECT_EQ(view.boundary_year(), kUnknownYear);
}

TEST(TemporalCsrTest, UnknownYearNodesBelongToEverySnapshot) {
  // kUnknownYear sorts first, and ExtractSnapshot keeps unknown-year
  // articles at every boundary; views must agree.
  CitationGraph g = MakeGraph({kUnknownYear, 2005, 2001},
                              {{1, 0}, {1, 2}, {2, 0}});
  TemporalCsr tcsr(g);
  SnapshotView view = tcsr.MakeView(2001);
  Snapshot snap = ExtractSnapshot(g, 2001);
  EXPECT_EQ(view.num_nodes(), snap.graph.num_nodes());
  EXPECT_EQ(view.num_nodes(), 2u);  // the unknown-year node + the 2001 one
}

/// Checks one view against the materialized oracle extracted from the
/// sorted graph (identity id maps there, so ids compare directly).
void ExpectViewMatchesOracle(const TemporalCsr& tcsr, Year boundary) {
  SnapshotView view = tcsr.MakeView(boundary);
  Snapshot snap =
      ExtractSnapshot(tcsr.sorted_graph(), boundary);
  ASSERT_EQ(view.num_nodes(), snap.graph.num_nodes());
  EXPECT_EQ(view.boundary_year(), snap.boundary_year);
  EXPECT_EQ(view.CountEdges(), snap.graph.num_edges());
  for (NodeId s = 0; s < view.num_nodes(); ++s) {
    EXPECT_EQ(view.year(s), snap.graph.year(s));
    ASSERT_EQ(view.OutDegree(s), snap.graph.OutDegree(s));
    ASSERT_EQ(view.InDegree(s), snap.graph.InDegree(s));
    std::span<const NodeId> view_refs = view.References(s);
    std::span<const NodeId> snap_refs = snap.graph.References(s);
    for (size_t i = 0; i < view_refs.size(); ++i) {
      EXPECT_EQ(view_refs[i], snap_refs[i]);
    }
    std::span<const NodeId> view_cit = view.Citers(s);
    std::span<const NodeId> snap_cit = snap.graph.Citers(s);
    for (size_t i = 0; i < view_cit.size(); ++i) {
      EXPECT_EQ(view_cit[i], snap_cit[i]);
    }
  }
}

TEST(TemporalCsrTest, ViewsMatchMaterializedOracleAcrossBoundaries) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    CitationGraph g = MakeShuffledYearGraph(250, 2.5, 2000, 10, seed);
    TemporalCsr tcsr(g);
    for (Year b = 1999; b <= 2010; ++b) {
      ExpectViewMatchesOracle(tcsr, b);
    }
  }
}

TEST(TemporalCsrTest, IdentityViewsMatchMaterializedOracle) {
  CitationGraph g = MakeRandomGraph(250, 2.5, 2000, 10, 21);
  TemporalCsr tcsr(g);
  ASSERT_TRUE(tcsr.is_identity());
  for (Year b = 1999; b <= 2010; ++b) {
    ExpectViewMatchesOracle(tcsr, b);
  }
}

// -- Kernel bit-identity: every threaded kernel ranker must produce exactly
// -- the scores it produces on the materialized snapshot of the same
// -- prefix, at every thread count.

std::vector<std::shared_ptr<const Ranker>> ThreadedKernelRankers(int threads) {
  PowerIterationOptions power;
  power.threads = threads;
  TwprOptions twpr;
  twpr.recency_jump = true;
  twpr.power = power;
  HitsOptions hits;
  hits.threads = threads;
  KatzOptions katz;
  katz.threads = threads;
  SceasOptions sceas;
  sceas.threads = threads;
  return {
      std::make_shared<PageRankRanker>(power),
      std::make_shared<TimeWeightedPageRank>(twpr),
      std::make_shared<HitsRanker>(hits),
      std::make_shared<KatzRanker>(katz),
      std::make_shared<SceasRanker>(sceas),
  };
}

TEST(TemporalCsrTest, ViewRankingIsBitIdenticalToMaterialized) {
  for (uint64_t seed : {5u, 6u}) {
    CitationGraph g = MakeShuffledYearGraph(300, 3.0, 2000, 8, seed);
    TemporalCsr tcsr(g);
    const CitationGraph& sg = tcsr.sorted_graph();
    for (Year boundary : {2002, 2005, 2007}) {
      SnapshotView view = tcsr.MakeView(boundary);
      Snapshot snap = ExtractSnapshot(sg, boundary);
      ASSERT_EQ(view.num_nodes(), snap.graph.num_nodes());
      if (view.num_nodes() == 0) continue;
      for (int threads : {1, 2, 4, 8}) {
        for (const auto& ranker : ThreadedKernelRankers(threads)) {
          RankContext view_ctx;
          view_ctx.view = &view;
          view_ctx.now_year = boundary;
          Result<RankResult> view_result = ranker->Rank(view_ctx);
          ASSERT_TRUE(view_result.ok())
              << ranker->name() << ": " << view_result.status().ToString();

          RankContext mat_ctx;
          mat_ctx.graph = &snap.graph;
          mat_ctx.now_year = boundary;
          Result<RankResult> mat_result = ranker->Rank(mat_ctx);
          ASSERT_TRUE(mat_result.ok())
              << ranker->name() << ": " << mat_result.status().ToString();

          ASSERT_EQ(view_result.value().scores.size(),
                    mat_result.value().scores.size());
          EXPECT_EQ(view_result.value().iterations,
                    mat_result.value().iterations)
              << ranker->name() << " threads=" << threads;
          // Bitwise, not approximate: the view path must run the exact
          // same arithmetic as the materialized one.
          EXPECT_TRUE(view_result.value().scores ==
                      mat_result.value().scores)
              << ranker->name() << " threads=" << threads
              << " boundary=" << boundary;
        }
      }
    }
  }
}

TEST(TemporalCsrTest, ViewRankingIsThreadCountInvariant) {
  CitationGraph g = MakeShuffledYearGraph(300, 3.0, 2000, 8, 9);
  TemporalCsr tcsr(g);
  SnapshotView view = tcsr.MakeView(2005);
  ASSERT_GT(view.num_nodes(), 0u);
  std::vector<std::vector<double>> per_thread_scores;
  for (int threads : {1, 2, 4, 8}) {
    for (const auto& ranker : ThreadedKernelRankers(threads)) {
      RankContext ctx;
      ctx.view = &view;
      ctx.now_year = 2005;
      Result<RankResult> result = ranker->Rank(ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      per_thread_scores.push_back(std::move(result.value().scores));
    }
  }
  const size_t kinds = per_thread_scores.size() / 4;
  for (size_t t = 1; t < 4; ++t) {
    for (size_t k = 0; k < kinds; ++k) {
      EXPECT_TRUE(per_thread_scores[k] == per_thread_scores[t * kinds + k])
          << "ranker " << k << " diverges at thread set " << t;
    }
  }
}

TEST(TemporalCsrTest, ApproxBytesIsFreeOnIdentityGraphs) {
  CitationGraph g = MakeRandomGraph(500, 3.0, 1990, 10, 3);
  TemporalCsr identity(g);
  CitationGraph shuffled = MakeShuffledYearGraph(500, 3.0, 1990, 10, 3);
  TemporalCsr permuted(shuffled);
  // The identity index holds no per-node arrays; the permuted one owns a
  // full relabeled copy and must say so.
  EXPECT_LT(identity.ApproxBytes(), permuted.ApproxBytes());
}

TEST(TemporalCsrTest, OrdersEachYearTopologically) {
  // Years ascend (unknown first); inside a year every reference comes
  // before its citer, smallest ready parent id first, and the 2002 cycle
  // 4 -> 5 -> 6 -> 4 is broken at its smallest parent id, 4.
  const CitationGraph g = testing_util::MakeDirtyGraph();
  TemporalCsr tcsr(g);
  ASSERT_FALSE(tcsr.is_identity());
  const std::vector<NodeId> want = {9, 7, 3, 2, 1, 0, 13, 15,
                                    11, 4, 6, 5, 8, 10, 12, 14};
  for (NodeId s = 0; s < want.size(); ++s) {
    EXPECT_EQ(tcsr.ToParent(s), want[s]) << "sorted id " << s;
  }
  // Rows stay ascending, so views still keep row prefixes.
  const CitationGraph& sg = tcsr.sorted_graph();
  for (NodeId u = 0; u < sg.num_nodes(); ++u) {
    std::span<const NodeId> row = sg.References(u);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
  ExpectViewMatchesOracle(tcsr, 2002);

  // With nothing ready, the smallest remaining id goes next even when it
  // only cites into a cycle: A(0) -> B(1) with B <-> C(2) keeps the order
  // A, B, C and leaves 2 upward references, where B, C, A would leave 1.
  const CitationGraph into_cycle =
      MakeGraph({2000, 2000, 2000}, {{0, 1}, {1, 2}, {2, 1}});
  TemporalCsr kept(into_cycle);
  EXPECT_TRUE(kept.is_identity());
  EXPECT_EQ(CountUpwardReferences(kept.sorted_graph()), 2u);
}

TEST(TemporalCsrTest, IdentityMeansParentIdsAreInPublicationOrder) {
  // A same-year reference to a larger id needs a relabel...
  CitationGraph up = MakeGraph({2000, 2000, 2001}, {{0, 1}, {2, 0}});
  TemporalCsr relabeled(up);
  EXPECT_FALSE(relabeled.is_identity());
  EXPECT_EQ(relabeled.ToParent(0), 1u);
  EXPECT_EQ(relabeled.ToParent(1), 0u);
  EXPECT_EQ(CountUpwardReferences(relabeled.sorted_graph()), 0u);
  // ...but a same-year cycle broken at its smallest id is already in
  // order, and so is a backward citation.
  CitationGraph cycle = MakeGraph({2000, 2000, 2001}, {{0, 1}, {1, 0}, {0, 2}});
  TemporalCsr kept(cycle);
  EXPECT_TRUE(kept.is_identity());
  EXPECT_EQ(&kept.sorted_graph(), &cycle);
  EXPECT_EQ(CountUpwardReferences(kept.sorted_graph()), 2u);
  // The order is idempotent: the sorted graph, and so every materialized
  // snapshot of a view, is already in publication order.
  for (uint64_t seed : {1u, 2u, 3u}) {
    const CitationGraph g = testing_util::MakeRandomDirtyGraph(
        400, 4.0, 1990, 8, seed);
    TemporalCsr tcsr(g);
    EXPECT_FALSE(tcsr.is_identity());
    TemporalCsr again(tcsr.sorted_graph());
    EXPECT_TRUE(again.is_identity()) << "seed " << seed;
  }
}

TEST(TemporalCsrTest, CountsUpwardReferences) {
  // The dirty graph's upward references: the cycle closer 4 -> 5, the
  // backward citation 7 -> 8 and the unknown-year citer 9 -> 0.
  EXPECT_EQ(CountUpwardReferences(
                TemporalCsr(testing_util::MakeDirtyGraph()).sorted_graph()),
            3u);
  EXPECT_EQ(CountUpwardReferences(
                TemporalCsr(MakeRandomGraph(300, 3.0, 1990, 12, 7))
                    .sorted_graph()),
            0u);
  // Counted in parent ids through the permutation, the same references
  // point up: the relabel keeps every edge.
  for (uint64_t seed : {4u, 5u}) {
    const CitationGraph g =
        testing_util::MakeRandomDirtyGraph(500, 4.0, 1990, 8, seed);
    TemporalCsr tcsr(g);
    size_t upward = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v : g.References(u)) {
        upward += tcsr.FromParent(v) >= tcsr.FromParent(u);
      }
    }
    EXPECT_GT(upward, 0u);
    EXPECT_EQ(CountUpwardReferences(tcsr.sorted_graph()), upward)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace scholar
