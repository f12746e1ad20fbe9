#include "rank/pagerank.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>
#include "graph/temporal_csr.h"
#include "power_iteration_oracle.h"
#include "rank/citerank.h"
#include "rank/time_weighted_pagerank.h"
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeGraph;
using testing_util::MakeRandomGraph;
using testing_util::MakeShuffledYearGraph;
using testing_util::MakeTinyGraph;

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(PageRankTest, ScoresFormDistribution) {
  PageRankRanker ranker;
  RankResult r = ranker.Rank(MakeTinyGraph()).value();
  ASSERT_EQ(r.scores.size(), 5u);
  EXPECT_NEAR(Sum(r.scores), 1.0, 1e-9);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 1);  // every reference points back in time
  for (double s : r.scores) EXPECT_GT(s, 0.0);
}

TEST(PageRankTest, UniformOnDirectedCycle) {
  // 0<-1<-2<-3<-0: perfect symmetry, every node gets 1/4.
  CitationGraph g = MakeGraph({2000, 2000, 2000, 2000},
                              {{1, 0}, {2, 1}, {3, 2}, {0, 3}});
  RankResult r = PageRankRanker().Rank(g).value();
  for (double s : r.scores) EXPECT_NEAR(s, 0.25, 1e-9);
}

TEST(PageRankTest, StarCenterDominates) {
  std::vector<Year> years(20, 2000);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 1; u < 20; ++u) edges.push_back({u, 0});
  RankResult r = PageRankRanker().Rank(MakeGraph(years, edges)).value();
  for (NodeId v = 1; v < 20; ++v) EXPECT_GT(r.scores[0], r.scores[v]);
}

TEST(PageRankTest, MatchesHandComputedTwoNodeChain) {
  // 1 -> 0. With d = 0.85, n = 2:
  //   s0 = 0.85*(s1 + dangling(s0)) /? — verify against closed form instead:
  // s1 receives only teleport + dangling share; solve the 2x2 fixed point.
  CitationGraph g = MakeGraph({2000, 2001}, {{1, 0}});
  PowerIterationOptions o;
  o.damping = 0.85;
  o.tolerance = 1e-14;
  RankResult r = PageRankRanker(o).Rank(g).value();
  // Fixed point equations (node 0 is dangling, mass redistributed
  // uniformly):
  //   s0 = 0.85*(s1 + s0/2) + 0.15/2
  //   s1 = 0.85*(s0/2)      + 0.15/2
  // Solving: s1 = (0.075 + 0.425*s0), s0 = 0.85*s1 + 0.425*s0 + 0.075.
  double s0 = r.scores[0], s1 = r.scores[1];
  EXPECT_NEAR(s0, 0.85 * (s1 + s0 / 2) + 0.075, 1e-9);
  EXPECT_NEAR(s1, 0.85 * (s0 / 2) + 0.075, 1e-9);
  EXPECT_NEAR(s0 + s1, 1.0, 1e-9);
}

TEST(PageRankTest, ZeroDampingGivesJumpVector) {
  CitationGraph g = MakeTinyGraph();
  PowerIterationOptions o;
  o.damping = 0.0;
  RankResult r = PageRankRanker(o).Rank(g).value();
  for (double s : r.scores) EXPECT_NEAR(s, 0.2, 1e-12);
  EXPECT_TRUE(r.converged);
}

TEST(PageRankTest, AllDanglingGraphIsUniform) {
  CitationGraph g = MakeGraph({2000, 2001, 2002}, {});
  RankResult r = PageRankRanker().Rank(g).value();
  for (double s : r.scores) EXPECT_NEAR(s, 1.0 / 3, 1e-9);
}

TEST(PageRankTest, EmptyGraph) {
  RankResult r = PageRankRanker().Rank(CitationGraph()).value();
  EXPECT_TRUE(r.scores.empty());
}

TEST(PageRankTest, SingleNode) {
  CitationGraph g = MakeGraph({2000}, {});
  RankResult r = PageRankRanker().Rank(g).value();
  ASSERT_EQ(r.scores.size(), 1u);
  EXPECT_NEAR(r.scores[0], 1.0, 1e-12);
}

TEST(PageRankTest, RejectsBadDamping) {
  PowerIterationOptions o;
  o.damping = 1.0;
  EXPECT_TRUE(PageRankRanker(o)
                  .Rank(MakeTinyGraph())
                  .status()
                  .IsInvalidArgument());
  o.damping = -0.1;
  EXPECT_TRUE(PageRankRanker(o)
                  .Rank(MakeTinyGraph())
                  .status()
                  .IsInvalidArgument());
}

TEST(PageRankTest, RejectsNonPositiveMaxIterations) {
  PowerIterationOptions o;
  o.max_iterations = 0;
  EXPECT_TRUE(PageRankRanker(o)
                  .Rank(MakeTinyGraph())
                  .status()
                  .IsInvalidArgument());
}

TEST(PageRankTest, ReportsNonConvergenceWhenIterationsExhausted) {
  // Same-year cycles and backward citations need repeated passes.
  PowerIterationOptions o;
  o.max_iterations = 2;
  o.tolerance = 1e-15;
  RankResult r =
      PageRankRanker(o).Rank(MakeShuffledYearGraph(200, 4, 1990, 10, 3))
          .value();
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_GT(r.final_residual, 0.0);
}

// --- the publication-order solver ---------------------------------------

/// Solves on the full view of `g`'s own TemporalCsr and maps the scores
/// back to graph ids, like a full-graph Rank does.
RankResult Solve(const CitationGraph& g, const YearGapWeights* weights,
                 const std::vector<double>& jump,
                 const PowerIterationOptions& o,
                 PowerIterationScratch* scratch = nullptr) {
  RankContext ctx;
  ctx.graph = &g;
  return RankInPublicationOrder(ctx, [&](const SnapshotView& view) {
           return SolveInPublicationOrder(view, weights, jump, o, scratch);
         })
      .value();
}

TEST(WeightedPowerIterationTest, UnitWeightsEqualUnweighted) {
  // sigma = 0 makes every weight exactly 1.0: the weighted pass performs
  // the uniform pass's arithmetic.
  CitationGraph g = MakeRandomGraph(300, 4, 1990, 10, 7);
  PowerIterationOptions o;
  const YearGapWeights ones(0.0, g.years());
  RankResult plain = Solve(g, nullptr, {}, o);
  RankResult weighted = Solve(g, &ones, {}, o);
  EXPECT_EQ(plain.scores, weighted.scores);
}

TEST(WeightedPowerIterationTest, ScalingWeightsIsInvariant) {
  // Row normalization makes uniform weight scaling a no-op: the oracle
  // gives the same scores for w and 5w, and the solver's TWPR weights land
  // on both.
  CitationGraph g = MakeRandomGraph(200, 3, 1990, 10, 9);
  std::vector<double> w = oracle::TwprWeights(g, 0.4);
  std::vector<double> w5 = w;
  for (double& x : w5) x *= 5.0;
  const RankResult a = oracle::PowerIteration(g, w, {}, 0.85, 1e-15, 5000);
  const RankResult b = oracle::PowerIteration(g, w5, {}, 0.85, 1e-15, 5000);
  EXPECT_LE(oracle::L1(a.scores, b.scores), 1e-12);
  const YearGapWeights table(0.4, g.years());
  RankResult solved = Solve(g, &table, {}, PowerIterationOptions());
  EXPECT_LE(oracle::L1(solved.scores, b.scores), 1e-12);
}

TEST(WeightedPowerIterationTest, ZeroWeightRowActsDangling) {
  // Node 2 cites 0 and 1, but exp(-1e4 * gap) underflows to zero -> it
  // behaves like a dangling node: same scores as the graph without those
  // edges.
  CitationGraph with_edges =
      MakeGraph({2000, 2000, 2001}, {{2, 0}, {2, 1}});
  CitationGraph without_edges = MakeGraph({2000, 2000, 2001}, {});
  const YearGapWeights underflow(1e4, with_edges.years());
  ASSERT_EQ(underflow(2001, 2000), 0.0);
  PowerIterationOptions o;
  RankResult a = Solve(with_edges, &underflow, {}, o);
  RankResult b = Solve(without_edges, nullptr, {}, o);
  for (size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_NEAR(a.scores[i], b.scores[i], 1e-15);
  }
}

TEST(WeightedPowerIterationTest, CustomJumpVectorShiftsMass) {
  CitationGraph g = MakeGraph({2000, 2001, 2002}, {});
  std::vector<double> jump = {0.0, 0.0, 1.0};
  RankResult r = Solve(g, nullptr, jump, PowerIterationOptions());
  // All nodes dangling: stationary distribution equals the jump vector.
  EXPECT_NEAR(r.scores[2], 1.0, 1e-15);
  EXPECT_NEAR(r.scores[0], 0.0, 1e-15);
}

TEST(WeightedPowerIterationTest, ValidatesInputs) {
  CitationGraph g = MakeTinyGraph();
  TemporalCsr tcsr(g);
  const SnapshotView view = tcsr.FullView();
  PowerIterationOptions o;
  // Wrong jump size.
  EXPECT_TRUE(SolveInPublicationOrder(view, nullptr, {0.5, 0.5}, o)
                  .status()
                  .IsInvalidArgument());
  // Jump does not sum to 1.
  std::vector<double> bad_jump(g.num_nodes(), 0.4);
  EXPECT_TRUE(SolveInPublicationOrder(view, nullptr, bad_jump, o)
                  .status()
                  .IsInvalidArgument());
  // Negative jump entry.
  std::vector<double> neg_jump = {1.4, -0.1, -0.1, -0.1, -0.1};
  EXPECT_TRUE(SolveInPublicationOrder(view, nullptr, neg_jump, o)
                  .status()
                  .IsInvalidArgument());
  // Damping outside [0, 1) and no passes allowed.
  o.damping = 1.0;
  EXPECT_TRUE(SolveInPublicationOrder(view, nullptr, {}, o)
                  .status()
                  .IsInvalidArgument());
  o = PowerIterationOptions();
  o.max_iterations = 0;
  EXPECT_TRUE(SolveInPublicationOrder(view, nullptr, {}, o)
                  .status()
                  .IsInvalidArgument());
}

TEST(WeightedPowerIterationTest, PullMatchesPushOracle) {
  // The solver's one push pass lands on the fixed point that the
  // power-iteration oracle reaches, with TWPR weights and a random jump.
  for (uint64_t seed : {2u, 11u, 42u}) {
    CitationGraph g = MakeRandomGraph(500, 5, 1985, 15, seed);
    std::vector<double> jump(g.num_nodes());
    Rng rng(seed + 100);
    double jump_total = 0.0;
    for (double& j : jump) {
      j = rng.NextDouble(0.0, 1.0);
      jump_total += j;
    }
    for (double& j : jump) j /= jump_total;
    const YearGapWeights weights(0.4, g.years());
    RankResult solved = Solve(g, &weights, jump, PowerIterationOptions());
    RankResult reference = oracle::PowerIteration(
        g, oracle::TwprWeights(g, 0.4), jump, 0.85, 1e-15, 5000);
    EXPECT_EQ(solved.iterations, 1);
    EXPECT_TRUE(solved.converged);
    EXPECT_LE(oracle::L1(solved.scores, reference.scores), 1e-11)
        << "seed " << seed;
  }
}

TEST(WeightedPowerIterationTest, BitIdenticalAcrossThreadCounts) {
  // Shuffled years bring same-year cycles and backward citations, so the
  // repeated passes run too.
  CitationGraph g = MakeShuffledYearGraph(3000, 6, 1980, 25, 17);
  const YearGapWeights weights(0.4, g.years());
  PowerIterationOptions o;
  o.threads = 1;
  RankResult serial = Solve(g, &weights, {}, o);
  EXPECT_GT(serial.iterations, 1);
  for (int threads : {2, 4, 8}) {
    o.threads = threads;
    RankResult parallel = Solve(g, &weights, {}, o);
    EXPECT_EQ(serial.scores, parallel.scores) << threads << " threads";
    EXPECT_EQ(serial.iterations, parallel.iterations);
    EXPECT_EQ(serial.final_residual, parallel.final_residual);
  }
}

TEST(WeightedPowerIterationTest, ScratchReuseMatchesFreshBuffers) {
  PowerIterationScratch scratch;
  PowerIterationOptions o;
  o.threads = 2;
  // Ranking different graphs through one scratch must equal fresh runs —
  // stale row or carried-mass entries from the larger graph must not leak
  // into the smaller one.
  CitationGraph big = MakeShuffledYearGraph(400, 5, 1990, 10, 3);
  CitationGraph small = MakeGraph({2000, 2001, 2002}, {{2, 0}});
  EXPECT_EQ(Solve(big, nullptr, {}, o).scores,
            Solve(big, nullptr, {}, o, &scratch).scores);
  EXPECT_EQ(Solve(small, nullptr, {}, o).scores,
            Solve(small, nullptr, {}, o, &scratch).scores);
}

// --- repeated (Gauss–Seidel) passes on references that point up ---------

TEST(GaussSeidelTest, MatchesPowerIterationFixedPoint) {
  CitationGraph g = MakeShuffledYearGraph(500, 5, 1985, 20, 3);
  PowerIterationOptions o;
  o.tolerance = 1e-14;
  RankResult gs = PageRankRanker(o).Rank(g).value();
  RankResult power = oracle::RankLinear("pagerank", g);
  EXPECT_GT(gs.iterations, 1);
  EXPECT_TRUE(gs.converged);
  EXPECT_LE(oracle::L1(gs.scores, power.scores), 1e-11);
}

TEST(GaussSeidelTest, ConvergesInFewerSweeps) {
  // A citation graph with a few percent of its references pointing up.
  // Only there do the passes win: on MakeShuffledYearGraph, where about
  // half of all references point up, the power iteration needs fewer
  // sweeps (bench/rank_scaling's shuffled_year rows: 35 against 50).
  CitationGraph g = testing_util::MakeRandomDirtyGraph(2000, 6, 1985, 25, 5);
  PowerIterationOptions o;
  o.tolerance = 1e-10;
  RankResult gs = PageRankRanker(o).Rank(g).value();
  RankResult power = oracle::PowerIteration(g, {}, {}, 0.85, 1e-10, 5000);
  EXPECT_TRUE(gs.converged);
  EXPECT_LT(gs.iterations, power.iterations);
}

TEST(GaussSeidelTest, WeightedSystemAgrees) {
  CitationGraph g = MakeShuffledYearGraph(300, 4, 1985, 20, 7);
  TwprOptions o;
  o.power.tolerance = 1e-14;
  RankResult gs = TimeWeightedPageRank(o).Rank(g).value();
  RankResult power = oracle::RankLinear("twpr", g);
  EXPECT_LE(oracle::L1(gs.scores, power.scores), 1e-11);
}

TEST(GaussSeidelTest, CustomJumpAgrees) {
  CitationGraph g = MakeShuffledYearGraph(200, 3, 1990, 10, 9);
  CiteRankOptions o;
  o.power.tolerance = 1e-14;
  RankResult gs = CiteRankRanker(o).Rank(g).value();
  RankResult power = oracle::RankLinear("citerank", g);
  EXPECT_LE(oracle::L1(gs.scores, power.scores), 1e-11);
}

TEST(GaussSeidelTest, ScoresFormDistribution) {
  // 0 -> 1 -> 2 -> 0 in one year, plus a reference out of the cycle.
  CitationGraph g = MakeGraph({2000, 2000, 2000, 1999},
                              {{0, 1}, {1, 2}, {2, 0}, {0, 3}});
  RankResult r = PageRankRanker().Rank(g).value();
  EXPECT_GT(r.iterations, 1);
  EXPECT_NEAR(Sum(r.scores), 1.0, 1e-12);
}

TEST(GaussSeidelTest, WarmStartKeepsFixedPoint) {
  // The solver ignores a seed: a warm rank is the cold rank, bit for bit.
  CitationGraph g = MakeShuffledYearGraph(300, 4, 1985, 20, 11);
  PageRankRanker ranker;
  RankResult cold = ranker.Rank(g).value();
  RankContext ctx;
  ctx.graph = &g;
  ctx.initial_scores = &cold.scores;
  RankResult warm = ranker.Rank(ctx).value();
  EXPECT_EQ(cold.scores, warm.scores);
  EXPECT_EQ(cold.iterations, warm.iterations);
}

TEST(GaussSeidelTest, RankerInterface) {
  PageRankRanker ranker;
  EXPECT_EQ(ranker.name(), "pagerank");
  RankResult r = ranker.Rank(MakeShuffledYearGraph(50, 3, 2000, 3, 1)).value();
  EXPECT_EQ(r.scores.size(), 50u);
  EXPECT_TRUE(r.converged);
}

TEST(GaussSeidelTest, ValidatesInputs) {
  CitationGraph g = MakeShuffledYearGraph(50, 3, 2000, 3, 1);
  PowerIterationOptions o;
  o.damping = 1.0;
  EXPECT_TRUE(PageRankRanker(o).Rank(g).status().IsInvalidArgument());
  TemporalCsr tcsr(g);
  EXPECT_TRUE(SolveInPublicationOrder(tcsr.FullView(), nullptr, {0.5, 0.5},
                                      PowerIterationOptions())
                  .status()
                  .IsInvalidArgument());
}

TEST(GaussSeidelTest, EmptyGraph) {
  const CitationGraph empty;
  TemporalCsr tcsr(empty);
  RankResult r = SolveInPublicationOrder(tcsr.FullView(), nullptr, {},
                                         PowerIterationOptions{})
                     .value();
  EXPECT_TRUE(r.scores.empty());
}

TEST(GaussSeidelTest, DanglingHeavyGraphAgrees) {
  // A star with many dangling leaves, whose center cites one leaf back.
  std::vector<Year> years(40, 2000);
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}};
  for (NodeId u = 1; u < 40; u += 2) edges.push_back({u, 0});
  CitationGraph g = MakeGraph(years, edges);
  PowerIterationOptions o;
  o.tolerance = 1e-14;
  RankResult gs = PageRankRanker(o).Rank(g).value();
  RankResult power = oracle::RankLinear("pagerank", g);
  EXPECT_GT(gs.iterations, 1);
  EXPECT_LE(oracle::L1(gs.scores, power.scores), 1e-11);
}

class PageRankPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageRankPropertyTest, DistributionAndDeterminism) {
  CitationGraph g = MakeRandomGraph(400, 5, 1985, 20, GetParam());
  RankResult a = PageRankRanker().Rank(g).value();
  RankResult b = PageRankRanker().Rank(g).value();
  EXPECT_NEAR(Sum(a.scores), 1.0, 1e-8);
  EXPECT_EQ(a.scores, b.scores);  // bit-for-bit deterministic
  EXPECT_TRUE(a.converged);
}

TEST_P(PageRankPropertyTest, MoreCitedOfTwinsWins) {
  // Append two twin nodes x, y citing nothing; x gets strictly more citers.
  GraphBuilder builder;
  for (int i = 0; i < 50; ++i) builder.AddNode(2000);
  NodeId x = builder.AddNode(2001);
  NodeId y = builder.AddNode(2001);
  Rng rng(GetParam());
  for (NodeId u = 0; u < 50; ++u) {
    SCHOLAR_CHECK_OK(builder.AddEdge(u, x));
    if (u % 2 == 0) SCHOLAR_CHECK_OK(builder.AddEdge(u, y));
  }
  CitationGraph g = std::move(builder).Build().value();
  RankResult r = PageRankRanker().Rank(g).value();
  EXPECT_GT(r.scores[x], r.scores[y]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageRankPropertyTest,
                         ::testing::Values(1, 5, 13, 77));

}  // namespace
}  // namespace scholar
