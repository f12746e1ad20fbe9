/// End-to-end pipeline tests: generate a realistic corpus, run the paper's
/// method and the baselines, and check the paper's qualitative claims at
/// small scale (the bench harness re-checks them at full scale).
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/scholar_ranker.h"
#include "data/dataset.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "eval/benchmark_sets.h"
#include "eval/cohort.h"
#include "graph/graph_io.h"
#include "graph/temporal_csr.h"
#include "util/rng.h"

namespace scholar {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticOptions o = AMinerLikeProfile(6000, /*seed=*/99);
    corpus_ = new Corpus(GenerateSyntheticCorpus(o, "integration").value());
    EvalSuiteOptions so;
    so.num_pairs = 20000;
    suite_ = new EvalSuite(BuildEvalSuite(*corpus_, so).value());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete suite_;
    corpus_ = nullptr;
    suite_ = nullptr;
  }

  static RankerEvaluation Evaluate(const std::string& name) {
    auto ranker = MakeRanker(name).value();
    return EvaluateRanker(*corpus_, *ranker, *suite_).value();
  }

  static Corpus* corpus_;
  static EvalSuite* suite_;
};

Corpus* IntegrationTest::corpus_ = nullptr;
EvalSuite* IntegrationTest::suite_ = nullptr;

TEST_F(IntegrationTest, AllRankersBeatCoinFlipOverall) {
  for (const std::string& name : KnownRankerNames()) {
    RankerEvaluation eval = Evaluate(name);
    EXPECT_GT(eval.overall_accuracy, 0.55) << name;
  }
}

TEST_F(IntegrationTest, EnsembleTwprImprovesOnPlainPageRank) {
  // The paper's headline claim: the time-aware ensemble fixes the recency
  // blindness of static PageRank — a large overall-accuracy gain without
  // giving up accuracy among recent articles.
  RankerEvaluation pr = Evaluate("pagerank");
  RankerEvaluation ens_twpr = Evaluate("ens_twpr");
  EXPECT_GT(ens_twpr.overall_accuracy, pr.overall_accuracy + 0.02);
  EXPECT_GE(ens_twpr.recent_accuracy, pr.recent_accuracy - 0.005);
}

TEST_F(IntegrationTest, EnsembleTwprBeatsCitationCount) {
  RankerEvaluation cc = Evaluate("cc");
  RankerEvaluation ens_twpr = Evaluate("ens_twpr");
  EXPECT_GT(ens_twpr.overall_accuracy, cc.overall_accuracy + 0.02);
  EXPECT_GT(ens_twpr.recent_accuracy, cc.recent_accuracy);
}

TEST_F(IntegrationTest, EnsembleTwprBeatsEveryPaperBaselineOverall) {
  RankerEvaluation ens_twpr = Evaluate("ens_twpr");
  for (const char* baseline :
       {"cc", "pagerank", "hits", "citerank", "futurerank"}) {
    RankerEvaluation eval = Evaluate(baseline);
    EXPECT_GT(ens_twpr.overall_accuracy, eval.overall_accuracy) << baseline;
  }
}

TEST_F(IntegrationTest, EnsembleFlattensAgeBias) {
  auto pr = MakeRanker("pagerank").value()->Rank(corpus_->graph).value();
  auto ens = MakeRanker("ens_twpr").value()->Rank(corpus_->graph).value();
  double pr_slope =
      RecencyBiasSlope(PercentilesByYear(corpus_->graph, pr.scores));
  double ens_slope =
      RecencyBiasSlope(PercentilesByYear(corpus_->graph, ens.scores));
  EXPECT_LT(std::abs(ens_slope), std::abs(pr_slope));
}

TEST_F(IntegrationTest, GraphSurvivesSerializationUnderRanking) {
  // Serialize -> reload -> identical ranking, across both formats.
  const std::string path = ::testing::TempDir() + "/integration.bin";
  ASSERT_TRUE(WriteGraphBinaryFile(corpus_->graph, path).ok());
  CitationGraph reloaded = ReadGraphBinaryFile(path).value();
  auto ranker = MakeRanker("twpr").value();
  auto original = ranker->Rank(corpus_->graph).value();
  auto roundtrip = ranker->Rank(reloaded).value();
  EXPECT_EQ(original.scores, roundtrip.scores);
}

TEST_F(IntegrationTest, FacadeAgreesWithRegistry) {
  Config config;
  config.Set("ranker", "ens_twpr");
  ScholarRanker facade = ScholarRanker::Create(config).value();
  RankingOutput out = facade.RankCorpus(*corpus_).value();
  auto direct = MakeRanker("ens_twpr").value();
  RankContext ctx;
  ctx.graph = &corpus_->graph;
  ctx.authors = &corpus_->authors;
  auto direct_result = direct->Rank(ctx).value();
  EXPECT_EQ(out.scores, direct_result.scores);
}

TEST_F(IntegrationTest, ShuffledCorpusGetsOneAnswerPerGraph) {
  // The corpus as an AMiner file whose records are out of publication
  // order: its node ids are not year-monotone, and it carries authors and
  // venues.
  std::ostringstream text;
  ASSERT_TRUE(WriteAMinerCorpus(*corpus_, &text).ok());
  const std::string all = std::move(text).str();
  // Every record the writer emits ends in a blank line.
  std::vector<std::string> records;
  size_t begin = 0;
  for (size_t end; (end = all.find("\n\n", begin)) != std::string::npos;
       begin = end + 2) {
    records.push_back(all.substr(begin, end + 2 - begin));
  }
  Rng rng(5);
  rng.Shuffle(&records);
  std::string joined;
  for (const std::string& record : records) joined += record;
  std::istringstream shuffled_text(joined);
  const Corpus shuffled = ReadAMinerCorpus(&shuffled_text, "shuffled").value();
  ASSERT_FALSE(TemporalCsr(shuffled.graph).is_identity());
  ASSERT_TRUE(shuffled.has_authors());
  ASSERT_FALSE(shuffled.venues.empty());

  // The maps RankCorpus adds must not change ens_twpr's answer. The max
  // normalizer keeps raw score values, so it also shows a difference in
  // summation order that rank percentiles would hide.
  for (const char* normalizer : {"percentile", "max"}) {
    Config config;
    config.Set("normalizer", normalizer);
    ScholarRanker facade = ScholarRanker::Create(config).value();
    RankingOutput with_maps = facade.RankCorpus(shuffled).value();
    RankingOutput graph_only = facade.RankGraph(shuffled.graph).value();
    EXPECT_TRUE(with_maps.scores == graph_only.scores) << normalizer;
  }

  for (const char* name : {"ens_futurerank", "ens_venuerank"}) {
    Config config;
    config.Set("ranker", name);
    Result<RankingOutput> out =
        ScholarRanker::Create(config).value().RankCorpus(shuffled);
    ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
    EXPECT_EQ(out.value().scores.size(), shuffled.num_articles()) << name;
  }
}

TEST_F(IntegrationTest, TwprIsAtLeastAsGoodAsPageRankOnRecent) {
  RankerEvaluation pr = Evaluate("pagerank");
  RankerEvaluation twpr = Evaluate("twpr");
  EXPECT_GE(twpr.recent_accuracy, pr.recent_accuracy - 0.01);
}

}  // namespace
}  // namespace scholar
