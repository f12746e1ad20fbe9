#include "ensemble/ensemble_ranker.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "data/synthetic.h"
#include "eval/cohort.h"
#include "graph/temporal_csr.h"
#include "rank/citation_count.h"
#include "rank/pagerank.h"
#include "rank/time_weighted_pagerank.h"
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

std::shared_ptr<const Ranker> PageRank() {
  return std::make_shared<PageRankRanker>();
}

TEST(EnsembleRankerTest, NameDerivesFromBase) {
  EnsembleRanker ens(PageRank());
  EXPECT_EQ(ens.name(), "ens_pagerank");
}

TEST(EnsembleRankerTest, SingleSliceMatchesNormalizedBase) {
  CitationGraph g = MakeRandomGraph(200, 4, 1990, 10, 3);
  EnsembleOptions o;
  o.num_slices = 1;
  o.normalizer = NormalizerKind::kRankPercentile;
  o.scope = NormalizationScope::kSnapshot;
  EnsembleRanker ens(PageRank(), o);
  RankResult ens_result = ens.Rank(g).value();
  RankResult base_result = PageRankRanker().Rank(g).value();
  std::vector<double> expected = MidrankPercentiles(base_result.scores);
  ASSERT_EQ(ens_result.scores.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(ens_result.scores[i], expected[i], 1e-12);
  }
}

TEST(EnsembleRankerTest, ScoresInUnitIntervalWithPercentile) {
  CitationGraph g = MakeRandomGraph(300, 4, 1985, 20, 5);
  EnsembleOptions o;
  o.num_slices = 5;
  EnsembleRanker ens(PageRank(), o);
  RankResult r = ens.Rank(g).value();
  for (double s : r.scores) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(EnsembleRankerTest, ReportsSnapshotDetails) {
  CitationGraph g = MakeRandomGraph(300, 4, 1985, 20, 5);
  EnsembleOptions o;
  o.num_slices = 4;
  EnsembleRanker ens(PageRank(), o);
  std::vector<EnsembleRanker::SnapshotDetail> details;
  RankContext ctx;
  ctx.graph = &g;
  RankResult r = ens.RankWithDetails(ctx, &details).value();
  ASSERT_EQ(details.size(), 4u);
  // Snapshots are accumulative: sizes must be non-decreasing.
  for (size_t i = 1; i < details.size(); ++i) {
    EXPECT_GE(details[i].num_nodes, details[i - 1].num_nodes);
    EXPECT_GE(details[i].num_edges, details[i - 1].num_edges);
    EXPECT_GT(details[i].boundary_year, details[i - 1].boundary_year);
  }
  EXPECT_EQ(details.back().num_nodes, g.num_nodes());
  EXPECT_EQ(r.iterations,
            details[0].iterations + details[1].iterations +
                details[2].iterations + details[3].iterations);
}

TEST(EnsembleRankerTest, ReducesRecencyBiasOfPageRank) {
  SyntheticOptions opts;
  opts.num_articles = 4000;
  opts.num_years = 16;
  opts.seed = 3;
  Corpus corpus = GenerateSyntheticCorpus(opts, "bias").value();

  RankResult pr = PageRankRanker().Rank(corpus.graph).value();
  EnsembleOptions o;
  o.num_slices = 8;
  EnsembleRanker ens(PageRank(), o);
  RankResult ens_result = ens.Rank(corpus.graph).value();

  const double pr_slope =
      RecencyBiasSlope(PercentilesByYear(corpus.graph, pr.scores));
  const double ens_slope =
      RecencyBiasSlope(PercentilesByYear(corpus.graph, ens_result.scores));
  // PageRank is biased against recent cohorts (negative slope); the
  // cohort-normalized ensemble must be at least twice as flat.
  EXPECT_LT(pr_slope, 0.0);
  EXPECT_LT(std::abs(ens_slope), std::abs(pr_slope) * 0.5);
}

TEST(EnsembleRankerTest, RecencyWeightedCombinerLeansOnLateSnapshots) {
  CitationGraph g = MakeRandomGraph(400, 4, 1985, 20, 7);
  EnsembleOptions mean_o;
  mean_o.num_slices = 6;
  mean_o.combiner = EnsembleCombiner::kMean;
  EnsembleOptions rec_o = mean_o;
  rec_o.combiner = EnsembleCombiner::kRecencyWeighted;
  rec_o.gamma = 0.5;
  RankResult mean_r = EnsembleRanker(PageRank(), mean_o).Rank(g).value();
  RankResult rec_r = EnsembleRanker(PageRank(), rec_o).Rank(g).value();
  // Different combiners must actually change the scores.
  bool any_diff = false;
  for (size_t i = 0; i < mean_r.scores.size(); ++i) {
    if (std::abs(mean_r.scores[i] - rec_r.scores[i]) > 1e-9) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
  // gamma=1 recency weighting degenerates to the mean.
  EnsembleOptions gamma1 = rec_o;
  gamma1.gamma = 1.0;
  RankResult g1 = EnsembleRanker(PageRank(), gamma1).Rank(g).value();
  for (size_t i = 0; i < mean_r.scores.size(); ++i) {
    EXPECT_NEAR(g1.scores[i], mean_r.scores[i], 1e-12);
  }
}

TEST(EnsembleRankerTest, ScopeChangesScores) {
  CitationGraph g = MakeRandomGraph(400, 4, 1985, 20, 13);
  EnsembleOptions cohort_o;
  cohort_o.num_slices = 6;
  cohort_o.scope = NormalizationScope::kSliceCohort;
  EnsembleOptions snap_o = cohort_o;
  snap_o.scope = NormalizationScope::kSnapshot;
  RankResult cohort_r = EnsembleRanker(PageRank(), cohort_o).Rank(g).value();
  RankResult snap_r = EnsembleRanker(PageRank(), snap_o).Rank(g).value();
  EXPECT_NE(cohort_r.scores, snap_r.scores);
}

TEST(EnsembleRankerTest, CohortScopeRemovesBiasBetterThanSnapshotScope) {
  SyntheticOptions opts;
  opts.num_articles = 4000;
  opts.num_years = 16;
  opts.seed = 3;
  Corpus corpus = GenerateSyntheticCorpus(opts, "scope").value();
  EnsembleOptions cohort_o;
  cohort_o.num_slices = 8;
  EnsembleOptions snap_o = cohort_o;
  snap_o.scope = NormalizationScope::kSnapshot;
  auto cohort_scores =
      EnsembleRanker(PageRank(), cohort_o).Rank(corpus.graph).value().scores;
  auto snap_scores =
      EnsembleRanker(PageRank(), snap_o).Rank(corpus.graph).value().scores;
  double cohort_slope =
      RecencyBiasSlope(PercentilesByYear(corpus.graph, cohort_scores));
  double snap_slope =
      RecencyBiasSlope(PercentilesByYear(corpus.graph, snap_scores));
  EXPECT_LT(std::abs(cohort_slope), std::abs(snap_slope));
}

TEST(EnsembleRankerTest, WindowLimitsContributingSnapshots) {
  CitationGraph g = MakeRandomGraph(400, 4, 1985, 20, 17);
  EnsembleOptions all_o;
  all_o.num_slices = 6;
  all_o.window = 0;
  EnsembleOptions w1_o = all_o;
  w1_o.window = 1;
  RankResult all_r = EnsembleRanker(PageRank(), all_o).Rank(g).value();
  RankResult w1_r = EnsembleRanker(PageRank(), w1_o).Rank(g).value();
  EXPECT_NE(all_r.scores, w1_r.scores);
  // A huge window is equivalent to window = 0 (all snapshots).
  EnsembleOptions big_o = all_o;
  big_o.window = 1000;
  RankResult big_r = EnsembleRanker(PageRank(), big_o).Rank(g).value();
  EXPECT_EQ(all_r.scores, big_r.scores);
}

TEST(EnsembleRankerTest, NegativeWindowRejected) {
  EnsembleOptions o;
  o.window = -1;
  EXPECT_TRUE(EnsembleRanker(PageRank(), o)
                  .Rank(MakeTinyGraph())
                  .status()
                  .IsInvalidArgument());
}

TEST(ScopeStringsTest, RoundTrip) {
  EXPECT_EQ(NormalizationScopeFromString("cohort").value(),
            NormalizationScope::kSliceCohort);
  EXPECT_EQ(NormalizationScopeFromString("snapshot").value(),
            NormalizationScope::kSnapshot);
  EXPECT_TRUE(NormalizationScopeFromString("?").status().IsInvalidArgument());
  EXPECT_EQ(NormalizationScopeToString(NormalizationScope::kSliceCohort),
            "cohort");
}

TEST(EnsembleRankerTest, ValidatesOptions) {
  CitationGraph g = MakeTinyGraph();
  EnsembleOptions o;
  o.num_slices = 0;
  EXPECT_TRUE(
      EnsembleRanker(PageRank(), o).Rank(g).status().IsInvalidArgument());
  o = EnsembleOptions();
  o.combiner = EnsembleCombiner::kRecencyWeighted;
  o.gamma = 0.0;
  EXPECT_TRUE(
      EnsembleRanker(PageRank(), o).Rank(g).status().IsInvalidArgument());
  o.gamma = 1.5;
  EXPECT_TRUE(
      EnsembleRanker(PageRank(), o).Rank(g).status().IsInvalidArgument());
}

TEST(EnsembleRankerTest, EmptyGraph) {
  RankResult r = EnsembleRanker(PageRank()).Rank(CitationGraph()).value();
  EXPECT_TRUE(r.scores.empty());
}

TEST(EnsembleRankerTest, RejectsSnapshotView) {
  CitationGraph g = MakeTinyGraph();
  TemporalCsr tcsr(g);
  SnapshotView view = tcsr.MakeView(2003);
  RankContext ctx;
  ctx.view = &view;
  EXPECT_TRUE(EnsembleRanker(PageRank()).Rank(ctx).status().IsInvalidArgument());
}

TEST(EnsembleRankerTest, WorksWithCitationCountBase) {
  CitationGraph g = MakeRandomGraph(200, 3, 1990, 10, 9);
  EnsembleRanker ens(std::make_shared<CitationCountRanker>());
  RankResult r = ens.Rank(g).value();
  EXPECT_EQ(r.scores.size(), g.num_nodes());
  EXPECT_EQ(r.iterations, 0);
}

TEST(EnsembleRankerTest, TwprBaseConverges) {
  CitationGraph g = MakeRandomGraph(300, 4, 1985, 20, 11);
  EnsembleRanker ens(std::make_shared<TimeWeightedPageRank>());
  RankResult r = ens.Rank(g).value();
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.iterations, 0);
}

TEST(EnsembleParallelTest, IndependentSnapshotsBitIdenticalAcrossThreads) {
  CitationGraph g = MakeRandomGraph(1500, 5, 1980, 30, 41);
  EnsembleOptions o;
  o.num_slices = 6;
  o.warm_start = false;  // every snapshot cold-starts; still ranked in order
  o.threads = 1;
  RankContext ctx;
  ctx.graph = &g;
  std::vector<EnsembleRanker::SnapshotDetail> details_serial;
  RankResult serial = EnsembleRanker(PageRank(), o)
                          .RankWithDetails(ctx, &details_serial)
                          .value();
  for (int threads : {2, 4}) {
    o.threads = threads;
    std::vector<EnsembleRanker::SnapshotDetail> details_parallel;
    RankResult parallel = EnsembleRanker(PageRank(), o)
                              .RankWithDetails(ctx, &details_parallel)
                              .value();
    EXPECT_EQ(serial.scores, parallel.scores) << threads << " threads";
    EXPECT_EQ(serial.iterations, parallel.iterations);
    ASSERT_EQ(details_serial.size(), details_parallel.size());
    for (size_t i = 0; i < details_serial.size(); ++i) {
      EXPECT_EQ(details_serial[i].boundary_year,
                details_parallel[i].boundary_year);
      EXPECT_EQ(details_serial[i].num_nodes, details_parallel[i].num_nodes);
      EXPECT_EQ(details_serial[i].iterations, details_parallel[i].iterations);
    }
  }
}

TEST(EnsembleParallelTest, WarmStartChainBitIdenticalAcrossThreads) {
  CitationGraph g = MakeRandomGraph(1500, 5, 1980, 30, 43);
  EnsembleOptions o;
  o.num_slices = 6;
  o.warm_start = true;  // sequential chain; inner loops use the pool
  o.window = 3;         // exercise the windowed accumulation path too
  o.threads = 1;
  RankResult serial = EnsembleRanker(PageRank(), o).Rank(g).value();
  for (int threads : {2, 4}) {
    o.threads = threads;
    RankResult parallel = EnsembleRanker(PageRank(), o).Rank(g).value();
    EXPECT_EQ(serial.scores, parallel.scores) << threads << " threads";
    EXPECT_EQ(serial.iterations, parallel.iterations);
  }
}

TEST(EnsembleParallelTest, ParallelModeMatchesSequentialColdStart) {
  // Cold starts rank the snapshots in index order like warm ones, with
  // multi-threaded solves when threads>1; the recency-weighted fold must
  // not see the pool width.
  CitationGraph g = MakeRandomGraph(800, 4, 1985, 20, 47);
  EnsembleOptions o;
  o.num_slices = 5;
  o.warm_start = false;
  o.combiner = EnsembleCombiner::kRecencyWeighted;
  o.gamma = 0.7;
  o.threads = 1;
  RankResult sequential = EnsembleRanker(PageRank(), o).Rank(g).value();
  o.threads = 4;
  RankResult parallel = EnsembleRanker(PageRank(), o).Rank(g).value();
  EXPECT_EQ(sequential.scores, parallel.scores);
}

TEST(EnsembleCombinerTest, StringRoundTrip) {
  EXPECT_EQ(EnsembleCombinerFromString("mean").value(),
            EnsembleCombiner::kMean);
  EXPECT_EQ(EnsembleCombinerFromString("recency").value(),
            EnsembleCombiner::kRecencyWeighted);
  EXPECT_TRUE(EnsembleCombinerFromString("?").status().IsInvalidArgument());
  EXPECT_EQ(EnsembleCombinerToString(EnsembleCombiner::kMean), "mean");
}

// Unknown publication years (kUnknownYear = INT32_MIN) reach the rankers
// from the graph readers and the TSV reader. They read as older than every
// known year; no year difference may overflow and no ensemble table may be
// sized by the year span.
TEST(UnknownYearTest, EveryRankerAndEnsembleRanksAnUnknownYear) {
  // Ids are not year-sorted, so the ensemble's TemporalCsr permutes; the
  // known years span 2000..2004 only.
  GraphBuilder builder;
  for (Year y : {2000, 2001, kUnknownYear, 2002, 2003, 2004, 2004, 2002}) {
    builder.AddNode(y);
  }
  const std::pair<NodeId, NodeId> edges[] = {
      {1, 0}, {2, 0}, {2, 1}, {3, 0}, {3, 1}, {3, 2}, {4, 2}, {4, 3},
      {5, 1}, {5, 4}, {6, 2}, {6, 3}, {6, 5}, {7, 0}, {7, 2}};
  for (const auto& [u, v] : edges) SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
  const CitationGraph g = std::move(builder).Build().value();
  const PaperAuthors authors = PaperAuthors::FromLists(
      {{0}, {1}, {0, 2}, {1}, {2, 3}, {0}, {3}, {1, 2}});
  const std::vector<int32_t> venues = {0, 1, 0, -1, 1, 0, 1, 0};
  RankContext ctx;
  ctx.graph = &g;
  ctx.authors = &authors;
  ctx.venues = &venues;

  const std::vector<std::string> bases = {
      "cc",   "age_cc", "pagerank",  "pagerank_mc", "hits",
      "katz", "sceas",  "venuerank", "citerank",    "futurerank",  "twpr"};
  std::vector<std::pair<std::string, Config>> runs;
  for (const std::string& base : bases) {
    runs.push_back({base, Config()});
    for (const char* scope : {"snapshot", "cohort", "year"}) {
      for (const char* partition : {"count", "span"}) {
        Config config;
        config.Set("scope", scope);
        config.Set("partition", partition);
        config.SetInt("num_slices", 3);
        runs.push_back({"ens_" + base, config});
      }
    }
  }
  for (auto& [name, config] : runs) {
    const std::string label = name + " scope=" +
                              config.GetStringOr("scope", "-") +
                              " partition=" +
                              config.GetStringOr("partition", "-");
    std::vector<double> serial;
    for (int threads : {1, 4}) {
      config.SetInt("threads", threads);
      const auto ranker = MakeRanker(name, config);
      ASSERT_TRUE(ranker.ok()) << label << ": " << ranker.status().ToString();
      const Result<RankResult> result = (*ranker)->Rank(ctx);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
      ASSERT_EQ(result->scores.size(), g.num_nodes()) << label;
      for (double score : result->scores) {
        EXPECT_TRUE(std::isfinite(score) && score >= 0.0)
            << label << " threads=" << threads << ": score " << score;
      }
      if (threads == 1) {
        serial = result->scores;
      } else {
        EXPECT_EQ(result->scores, serial) << label << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace scholar
