#include "rank/katz.h"

#include <numeric>

#include <gtest/gtest.h>
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeGraph;
using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

TEST(KatzTest, ScoresSumToOne) {
  RankResult r = KatzRanker().Rank(MakeTinyGraph()).value();
  EXPECT_NEAR(std::accumulate(r.scores.begin(), r.scores.end(), 0.0), 1.0,
              1e-9);
  EXPECT_TRUE(r.converged);
}

TEST(KatzTest, UncitedNodesScoreZero) {
  // Unlike PageRank (teleport floor), Katz gives path-less nodes nothing.
  CitationGraph g = MakeGraph({2000, 2001, 2002}, {{2, 0}});
  RankResult r = KatzRanker().Rank(g).value();
  EXPECT_GT(r.scores[0], 0.0);
  EXPECT_DOUBLE_EQ(r.scores[1], 0.0);
  EXPECT_DOUBLE_EQ(r.scores[2], 0.0);
}

TEST(KatzTest, ChainMatchesGeometricSeries) {
  // 2 -> 1 -> 0 with alpha a: s(1) = a, s(0) = a + a^2 (before
  // normalization).
  CitationGraph g = MakeGraph({2000, 2001, 2002}, {{1, 0}, {2, 1}});
  KatzOptions o;
  o.alpha = 0.1;
  o.tolerance = 1e-15;
  RankResult r = KatzRanker(o).Rank(g).value();
  const double s1 = 0.1, s0 = 0.1 + 0.01;
  const double total = s0 + s1;
  EXPECT_NEAR(r.scores[0], s0 / total, 1e-10);
  EXPECT_NEAR(r.scores[1], s1 / total, 1e-10);
  EXPECT_NEAR(r.scores[2], 0.0, 1e-12);
}

TEST(KatzTest, MoreCitedScoresHigher) {
  CitationGraph g = MakeRandomGraph(300, 4, 1990, 10, 5);
  RankResult r = KatzRanker().Rank(g).value();
  // Spot-check: the most cited node must beat an uncited node.
  NodeId most_cited = 0;
  NodeId uncited = kInvalidNode;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) > g.InDegree(most_cited)) most_cited = v;
    if (g.InDegree(v) == 0) uncited = v;
  }
  ASSERT_NE(uncited, kInvalidNode);
  EXPECT_GT(r.scores[most_cited], r.scores[uncited]);
}

TEST(KatzTest, DivergenceDetected) {
  // A 2-cycle has lambda_max = 1, so any alpha in (0,1) converges... use a
  // dense clique-ish graph where lambda_max is large: 30 nodes, everyone
  // cites everyone older, alpha = 0.9 diverges.
  GraphBuilder builder;
  builder.AddNodes(30, 2000);
  for (NodeId u = 0; u < 30; ++u) {
    for (NodeId v = 0; v < u; ++v) {
      SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
    }
  }
  // Add a cycle so paths are unbounded.
  SCHOLAR_CHECK_OK(builder.AddEdge(0, 29));
  CitationGraph g = std::move(builder).Build().value();
  KatzOptions o;
  o.alpha = 0.9;
  o.max_iterations = 500;
  auto result = KatzRanker(o).Rank(g);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KatzTest, SlowDivergenceIsNotReportedAsConvergence) {
  // Three same-year articles citing each other: lambda_max = 2, so
  // alpha = 0.6 diverges slowly. The normalized scores settle on the
  // principal eigenvector within about 55 passes while the mass is still
  // far below the divergence guard's limit; the growing mass must keep
  // the passes going until the guard trips.
  CitationGraph g = MakeGraph(
      {2000, 2000, 2000}, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}});
  KatzOptions o;
  o.alpha = 0.6;
  auto result = KatzRanker(o).Rank(g);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KatzTest, RejectsBadOptions) {
  KatzOptions o;
  o.alpha = 0.0;
  EXPECT_TRUE(
      KatzRanker(o).Rank(MakeTinyGraph()).status().IsInvalidArgument());
  o.alpha = 1.0;
  EXPECT_TRUE(
      KatzRanker(o).Rank(MakeTinyGraph()).status().IsInvalidArgument());
  o = KatzOptions();
  o.max_iterations = 0;
  EXPECT_TRUE(
      KatzRanker(o).Rank(MakeTinyGraph()).status().IsInvalidArgument());
}

TEST(KatzTest, EmptyGraph) {
  RankResult r = KatzRanker().Rank(CitationGraph()).value();
  EXPECT_TRUE(r.scores.empty());
}

}  // namespace
}  // namespace scholar
