/// Warm-start and incremental re-ranking: seeding iterations from earlier
/// results must not change fixed points, and must reduce iteration counts —
/// the refresh path for corpora that grow month by month. pagerank, twpr
/// and citerank solve in publication order and ignore a seed; the
/// iterative kernels (hits, katz, sceas) still use one.
#include <memory>

#include <gtest/gtest.h>

#include "ensemble/ensemble_ranker.h"
#include "graph/time_slicer.h"
#include "rank/hits.h"
#include "rank/katz.h"
#include "rank/pagerank.h"
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

TEST(ExtendScoresTest, PadsWithMeanAndNormalizes) {
  std::vector<double> old_scores = {0.2, 0.6};  // mean 0.4
  std::vector<double> extended = ExtendScoresForGrownGraph(old_scores, 4);
  ASSERT_EQ(extended.size(), 4u);
  // Raw: {0.2, 0.6, 0.4, 0.4}, total 1.6 -> normalized.
  EXPECT_DOUBLE_EQ(extended[0], 0.2 / 1.6);
  EXPECT_DOUBLE_EQ(extended[1], 0.6 / 1.6);
  EXPECT_DOUBLE_EQ(extended[2], 0.4 / 1.6);
  double sum = 0.0;
  for (double s : extended) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ExtendScoresTest, EmptyOldScoresGiveUniform) {
  std::vector<double> extended = ExtendScoresForGrownGraph({}, 4);
  for (double s : extended) EXPECT_DOUBLE_EQ(s, 0.25);
}

TEST(ExtendScoresTest, ZeroTarget) {
  EXPECT_TRUE(ExtendScoresForGrownGraph({1.0}, 0).empty());
}

TEST(WarmStartTest, SameFixedPointAsColdStart) {
  CitationGraph g = MakeRandomGraph(400, 5, 1985, 20, 3);
  PageRankRanker ranker;
  RankResult cold = ranker.Rank(g).value();
  // Seed with an arbitrary (valid) distribution.
  std::vector<double> seed(g.num_nodes());
  Rng rng(7);
  for (double& s : seed) s = rng.NextDouble(0.1, 1.0);
  RankContext ctx;
  ctx.graph = &g;
  ctx.initial_scores = &seed;
  RankResult warm = ranker.Rank(ctx).value();
  EXPECT_EQ(cold.scores, warm.scores);
}

TEST(WarmStartTest, SeedingWithAnswerConvergesImmediately) {
  CitationGraph g = MakeRandomGraph(300, 4, 1985, 20, 5);
  KatzRanker ranker;
  RankResult cold = ranker.Rank(g).value();
  // Katz's fixed point is not a distribution: seed at its own magnitude.
  std::vector<double> seed = cold.scores;
  for (double& s : seed) s *= cold.score_mass;
  RankContext ctx;
  ctx.graph = &g;
  ctx.initial_scores = &seed;
  RankResult warm = ranker.Rank(ctx).value();
  EXPECT_LE(warm.iterations, 3);
  EXPECT_GT(cold.iterations, warm.iterations);
}

TEST(WarmStartTest, InvalidSeedRejected) {
  CitationGraph g = MakeTinyGraph();
  const std::vector<double> seed = {1.0, 2.0};
  RankContext ctx;
  ctx.graph = &g;
  ctx.initial_scores = &seed;
  EXPECT_TRUE(PageRankRanker().Rank(ctx).status().IsInvalidArgument());
  EXPECT_TRUE(KatzRanker().Rank(ctx).status().IsInvalidArgument());
}

TEST(WarmStartTest, NegativeSeedFallsBackToUniform) {
  CitationGraph g = MakeTinyGraph();
  std::vector<double> bad_seed = {-1.0, 1.0, 1.0, 1.0, 1.0};
  PageRankRanker ranker;
  RankResult cold = ranker.Rank(g).value();
  RankContext ctx;
  ctx.graph = &g;
  ctx.initial_scores = &bad_seed;
  RankResult fallback = ranker.Rank(ctx).value();
  EXPECT_EQ(cold.scores, fallback.scores);
  EXPECT_EQ(cold.iterations, fallback.iterations);
}

TEST(IncrementalRankTest, GrownGraphRefreshesFaster) {
  // Yesterday's corpus...
  CitationGraph full = MakeRandomGraph(2000, 6, 1985, 25, 11);
  Snapshot yesterday = ExtractSnapshot(full, 2005);
  HitsRanker ranker;
  RankResult old_result = ranker.Rank(yesterday.graph).value();

  // ...grows to today's. Snapshot node ids are a prefix of the full
  // graph's (ids are monotone in year), so old scores extend directly.
  std::vector<double> seed =
      ExtendScoresForGrownGraph(old_result.scores, full.num_nodes());
  RankContext warm_ctx;
  warm_ctx.graph = &full;
  warm_ctx.initial_scores = &seed;
  RankResult warm = ranker.Rank(warm_ctx).value();
  RankResult cold = ranker.Rank(full).value();

  EXPECT_LT(warm.iterations, cold.iterations);
  for (size_t i = 0; i < cold.scores.size(); ++i) {
    EXPECT_NEAR(cold.scores[i], warm.scores[i], 1e-8);
  }
}

TEST(EnsembleWarmStartTest, SameScoresFewerIterations) {
  // HITS stops within its tolerance of the fixed point from either start,
  // so near-tied articles may swap percentiles; the sum normalizer keeps
  // the comparison linear in the base scores.
  CitationGraph g = MakeRandomGraph(1500, 5, 1985, 20, 13);
  EnsembleOptions warm_o;
  warm_o.warm_start = true;
  warm_o.normalizer = NormalizerKind::kSum;
  EnsembleOptions cold_o = warm_o;
  cold_o.warm_start = false;
  auto base = std::make_shared<HitsRanker>();
  RankResult warm = EnsembleRanker(base, warm_o).Rank(g).value();
  RankResult cold = EnsembleRanker(base, cold_o).Rank(g).value();
  EXPECT_LT(warm.iterations, cold.iterations);
  ASSERT_EQ(warm.scores.size(), cold.scores.size());
  for (size_t i = 0; i < warm.scores.size(); ++i) {
    EXPECT_NEAR(warm.scores[i], cold.scores[i], 1e-6);
  }
}

}  // namespace
}  // namespace scholar
