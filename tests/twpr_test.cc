#include "rank/time_weighted_pagerank.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>
#include "test_util.h"
#include "util/thread_pool.h"

namespace scholar {
namespace {

using testing_util::MakeGraph;
using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

TEST(TwprTest, EdgeWeightsDecayWithGap) {
  CitationGraph g = MakeTinyGraph();
  std::vector<double> w =
      TimeWeightedPageRank::ComputeEdgeWeights(g, /*sigma=*/0.5);
  ASSERT_EQ(w.size(), g.num_edges());
  // Node 3 (2003) cites 0 (2000, gap 3) and 2 (2002, gap 1); CSR row of 3
  // is sorted by target id, so w = [exp(-1.5), exp(-0.5)].
  const EdgeId row3 = g.out_offsets()[3];
  EXPECT_NEAR(w[row3], std::exp(-1.5), 1e-12);
  EXPECT_NEAR(w[row3 + 1], std::exp(-0.5), 1e-12);
}

TEST(TwprTest, BackwardTimeEdgesGetWeightOne) {
  // 0 (2005) cites 1 (2010): time-travel citation clamps to gap 0.
  CitationGraph g = MakeGraph({2005, 2010}, {{0, 1}});
  std::vector<double> w = TimeWeightedPageRank::ComputeEdgeWeights(g, 0.7);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(TwprTest, GapTableEqualsDirectExp) {
  // Gaps inside the table, a corrupt far year beyond the table's cap, and
  // citations to and from an unknown year: every weight is the very double
  // exp(-sigma * max(0, gap)) gives.
  const std::vector<Year> years = {1990, 2003, 2010, 5000, kUnknownYear};
  const YearGapWeights table(0.3, years);
  for (Year citer : years) {
    for (Year cited : years) {
      const double gap =
          static_cast<double>(std::max<int64_t>(0, YearGap(citer, cited)));
      EXPECT_EQ(table(citer, cited), std::exp(-0.3 * gap))
          << citer << " cites " << cited;
    }
  }
}

TEST(TwprTest, SigmaZeroEqualsClassicPageRank) {
  CitationGraph g = MakeRandomGraph(300, 4, 1985, 20, 3);
  TwprOptions o;
  o.sigma = 0.0;
  RankResult twpr = TimeWeightedPageRank(o).Rank(g).value();
  RankResult pr = PageRankRanker().Rank(g).value();
  ASSERT_EQ(twpr.scores.size(), pr.scores.size());
  for (size_t i = 0; i < pr.scores.size(); ++i) {
    EXPECT_NEAR(twpr.scores[i], pr.scores[i], 1e-12);
  }
}

TEST(TwprTest, ScoresFormDistribution) {
  RankResult r = TimeWeightedPageRank().Rank(MakeTinyGraph()).value();
  EXPECT_NEAR(std::accumulate(r.scores.begin(), r.scores.end(), 0.0), 1.0,
              1e-9);
  EXPECT_TRUE(r.converged);
}

TEST(TwprTest, RecentReferenceReceivesMoreThanOldOne) {
  // u (2010) cites a (1990) and b (2009); a and b are otherwise identical.
  CitationGraph g = MakeGraph({1990, 2009, 2010}, {{2, 0}, {2, 1}});
  TwprOptions o;
  o.sigma = 0.4;
  RankResult r = TimeWeightedPageRank(o).Rank(g).value();
  EXPECT_GT(r.scores[1], r.scores[0]);

  // Classic PageRank treats them identically.
  RankResult pr = PageRankRanker().Rank(g).value();
  EXPECT_NEAR(pr.scores[0], pr.scores[1], 1e-12);
}

TEST(TwprTest, LargerSigmaSharpensTheContrast) {
  CitationGraph g = MakeGraph({1990, 2009, 2010}, {{2, 0}, {2, 1}});
  TwprOptions weak;
  weak.sigma = 0.1;
  TwprOptions strong;
  strong.sigma = 1.0;
  RankResult rw = TimeWeightedPageRank(weak).Rank(g).value();
  RankResult rs = TimeWeightedPageRank(strong).Rank(g).value();
  const double contrast_weak = rw.scores[1] / rw.scores[0];
  const double contrast_strong = rs.scores[1] / rs.scores[0];
  EXPECT_GT(contrast_strong, contrast_weak);
}

TEST(TwprTest, RecencyJumpFavorsYoungArticles) {
  // No edges: stationary distribution equals the jump vector.
  CitationGraph g = MakeGraph({2000, 2005, 2010}, {});
  TwprOptions o;
  o.recency_jump = true;
  o.rho = 0.3;
  RankResult r = TimeWeightedPageRank(o).Rank(g).value();
  EXPECT_GT(r.scores[2], r.scores[1]);
  EXPECT_GT(r.scores[1], r.scores[0]);
}

TEST(TwprTest, ComputeRecencyJumpNormalized) {
  CitationGraph g = MakeTinyGraph();
  std::vector<double> jump =
      TimeWeightedPageRank::ComputeRecencyJump(g, 0.2, 2004);
  double sum = std::accumulate(jump.begin(), jump.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(jump[4], jump[0]);
}

TEST(TwprTest, RhoZeroRecencyJumpIsUniform) {
  CitationGraph g = MakeTinyGraph();
  std::vector<double> jump =
      TimeWeightedPageRank::ComputeRecencyJump(g, 0.0, 2004);
  for (double j : jump) EXPECT_NEAR(j, 0.2, 1e-12);
}

TEST(TwprTest, RejectsNegativeSigma) {
  TwprOptions o;
  o.sigma = -0.5;
  EXPECT_TRUE(TimeWeightedPageRank(o)
                  .Rank(MakeTinyGraph())
                  .status()
                  .IsInvalidArgument());
}

TEST(TwprTest, RejectsNegativeRhoWhenJumpEnabled) {
  TwprOptions o;
  o.recency_jump = true;
  o.rho = -0.1;
  EXPECT_TRUE(TimeWeightedPageRank(o)
                  .Rank(MakeTinyGraph())
                  .status()
                  .IsInvalidArgument());
}

TEST(TwprTest, EmptyGraph) {
  RankResult r = TimeWeightedPageRank().Rank(CitationGraph()).value();
  EXPECT_TRUE(r.scores.empty());
}

class TwprPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(TwprPropertyTest, DistributionAndConvergence) {
  CitationGraph g = MakeRandomGraph(300, 4, 1985, 20, 11);
  TwprOptions o;
  o.sigma = GetParam();
  RankResult r = TimeWeightedPageRank(o).Rank(g).value();
  EXPECT_NEAR(std::accumulate(r.scores.begin(), r.scores.end(), 0.0), 1.0,
              1e-8);
  EXPECT_TRUE(r.converged);
  for (double s : r.scores) EXPECT_GT(s, 0.0);
}

TEST_P(TwprPropertyTest, ReducesRecencyBiasVsPageRank) {
  // Mean score of the newest third should be closer to the oldest third's
  // under TWPR's recency jump than under classic PageRank.
  CitationGraph g = MakeRandomGraph(600, 5, 1985, 21, 13);
  TwprOptions o;
  o.sigma = GetParam();
  o.recency_jump = true;
  o.rho = 0.1;
  RankResult twpr = TimeWeightedPageRank(o).Rank(g).value();
  RankResult pr = PageRankRanker().Rank(g).value();
  auto third_means = [&](const std::vector<double>& s) {
    double young = 0, old = 0;
    size_t n = s.size();
    for (size_t i = 0; i < n / 3; ++i) old += s[i];
    for (size_t i = n - n / 3; i < n; ++i) young += s[i];
    return std::pair<double, double>(old / (n / 3), young / (n / 3));
  };
  auto [pr_old, pr_young] = third_means(pr.scores);
  auto [tw_old, tw_young] = third_means(twpr.scores);
  EXPECT_GT(tw_young / tw_old, pr_young / pr_old);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, TwprPropertyTest,
                         ::testing::Values(0.1, 0.4, 0.8));

TEST(TwprParallelTest, WeightPipelineBitIdenticalWithPool) {
  CitationGraph g = MakeRandomGraph(5000, 5, 1980, 30, 23);
  ThreadPool pool(4);
  std::vector<double> w_serial =
      TimeWeightedPageRank::ComputeEdgeWeights(g, 0.4);
  std::vector<double> w_pool =
      TimeWeightedPageRank::ComputeEdgeWeights(g, 0.4, &pool);
  EXPECT_EQ(w_serial, w_pool);
  std::vector<double> j_serial =
      TimeWeightedPageRank::ComputeRecencyJump(g, 0.2, 2010);
  std::vector<double> j_pool =
      TimeWeightedPageRank::ComputeRecencyJump(g, 0.2, 2010, &pool);
  EXPECT_EQ(j_serial, j_pool);
}

TEST(TwprParallelTest, ScoresBitIdenticalAcrossThreadCounts) {
  CitationGraph g = MakeRandomGraph(2000, 6, 1980, 25, 29);
  TwprOptions o;
  o.sigma = 0.4;
  o.recency_jump = true;
  o.rho = 0.15;
  o.power.threads = 1;
  RankResult serial = TimeWeightedPageRank(o).Rank(g).value();
  for (int threads : {2, 8}) {
    o.power.threads = threads;
    RankResult parallel = TimeWeightedPageRank(o).Rank(g).value();
    EXPECT_EQ(serial.scores, parallel.scores) << threads << " threads";
    EXPECT_EQ(serial.iterations, parallel.iterations);
  }
}

}  // namespace
}  // namespace scholar
