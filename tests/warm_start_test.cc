/// Warm-start and incremental re-ranking: seeding iterations from earlier
/// results must not change fixed points, and must reduce iteration counts —
/// the refresh path for corpora that grow month by month. The linear
/// rankers (pagerank, twpr, citerank, katz, sceas) solve in publication
/// order and ignore a seed; hits still uses one.
#include <memory>

#include <gtest/gtest.h>

#include "ensemble/ensemble_ranker.h"
#include "graph/time_slicer.h"
#include "rank/hits.h"
#include "rank/katz.h"
#include "rank/pagerank.h"
#include "rank/sceas.h"
#include "stream/incremental_ranker.h"
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

TEST(WarmStartTest, SameFixedPointAsColdStart) {
  CitationGraph g = MakeRandomGraph(400, 5, 1985, 20, 3);
  // Seed with an arbitrary (valid) distribution.
  std::vector<double> seed(g.num_nodes());
  Rng rng(7);
  for (double& s : seed) s = rng.NextDouble(0.1, 1.0);
  RankContext ctx;
  ctx.graph = &g;
  ctx.initial_scores = &seed;
  const std::vector<std::shared_ptr<const Ranker>> rankers = {
      std::make_shared<PageRankRanker>(), std::make_shared<KatzRanker>(),
      std::make_shared<SceasRanker>()};
  for (const auto& ranker : rankers) {
    RankResult cold = ranker->Rank(g).value();
    RankResult warm = ranker->Rank(ctx).value();
    EXPECT_EQ(cold.scores, warm.scores) << ranker->name();
    EXPECT_EQ(warm.iterations, 1) << ranker->name();
  }
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
      stream::ExtendSeedForGrownGraph(old_result.scores, full.num_nodes());
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
