#include "rank/sceas.h"

#include <numeric>

#include <gtest/gtest.h>
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeGraph;
using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

TEST(SceasTest, ScoresSumToOne) {
  RankResult r = SceasRanker().Rank(MakeTinyGraph()).value();
  EXPECT_NEAR(std::accumulate(r.scores.begin(), r.scores.end(), 0.0), 1.0,
              1e-9);
  EXPECT_TRUE(r.converged);
}

TEST(SceasTest, SingleCitationMatchesClosedForm) {
  // 1 -> 0: s(0) = (0 + b)/(a * 1) = b/a, s(1) = 0.
  CitationGraph g = MakeGraph({2000, 2001}, {{1, 0}});
  SceasOptions o;
  o.a = 2.0;
  o.b = 1.0;
  RankResult r = SceasRanker(o).Rank(g).value();
  // After normalization node 0 holds everything.
  EXPECT_NEAR(r.scores[0], 1.0, 1e-12);
  EXPECT_NEAR(r.scores[1], 0.0, 1e-12);
}

TEST(SceasTest, ChainClosedForm) {
  // 2 -> 1 -> 0 with a=2, b=1:
  //   s(1) = (s(2) + 1)/2 = 1/2
  //   s(0) = (s(1) + 1)/2 = 3/4
  CitationGraph g = MakeGraph({2000, 2001, 2002}, {{1, 0}, {2, 1}});
  SceasOptions o;
  o.a = 2.0;
  o.b = 1.0;
  o.tolerance = 1e-14;
  RankResult r = SceasRanker(o).Rank(g).value();
  const double total = 0.75 + 0.5;
  EXPECT_NEAR(r.scores[0], 0.75 / total, 1e-9);
  EXPECT_NEAR(r.scores[1], 0.5 / total, 1e-9);
}

TEST(SceasTest, NewArticleCreditFasterThanPageRank) {
  // SceasRank's selling point: a citation from an uncited article still
  // carries the base credit b immediately.
  CitationGraph g = MakeGraph({2000, 2001}, {{1, 0}});
  SceasOptions o;
  o.max_iterations = 1;  // one round is enough for direct credit
  RankResult r = SceasRanker(o).Rank(g).value();
  EXPECT_GT(r.scores[0], 0.0);
}

TEST(SceasTest, ZeroBaseCreditScoresZero) {
  // Without base credit nothing flows: s = 0 is the fixed point.
  SceasOptions o;
  o.b = 0.0;
  RankResult r = SceasRanker(o).Rank(MakeTinyGraph()).value();
  ASSERT_EQ(r.scores.size(), MakeTinyGraph().num_nodes());
  for (double s : r.scores) EXPECT_EQ(s, 0.0);
}

TEST(SceasTest, RejectsBadOptions) {
  SceasOptions o;
  o.a = 1.0;
  EXPECT_TRUE(
      SceasRanker(o).Rank(MakeTinyGraph()).status().IsInvalidArgument());
  o = SceasOptions();
  o.b = -1.0;
  EXPECT_TRUE(
      SceasRanker(o).Rank(MakeTinyGraph()).status().IsInvalidArgument());
  o = SceasOptions();
  o.max_iterations = 0;
  EXPECT_TRUE(
      SceasRanker(o).Rank(MakeTinyGraph()).status().IsInvalidArgument());
}

TEST(SceasTest, DeterministicAndConvergent) {
  CitationGraph g = MakeRandomGraph(300, 4, 1990, 10, 5);
  RankResult a = SceasRanker().Rank(g).value();
  RankResult b = SceasRanker().Rank(g).value();
  EXPECT_EQ(a.scores, b.scores);
  EXPECT_TRUE(a.converged);
}

TEST(SceasTest, EmptyGraph) {
  RankResult r = SceasRanker().Rank(CitationGraph()).value();
  EXPECT_TRUE(r.scores.empty());
}

}  // namespace
}  // namespace scholar
