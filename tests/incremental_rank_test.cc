// Property satellite: after N streamed batches, a warm incremental rank
// (seeded from the previous epoch via RankResult::score_mass) must land
// within tolerance of a cold full re-rank of the same graph AND converge
// in fewer total iterations — across every iterative kernel and thread
// counts {1, 2, 4, 8}; pagerank and twpr, which solve in one exact pass,
// must equal the cold rank bit for bit. Also pins the bit-identical-across-threads
// guarantee for the warm path and the bounded drift of mode=frontier.

#include "stream/incremental_ranker.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stream/streaming_graph.h"
#include "test_util.h"

namespace scholar {
namespace stream {
namespace {

using testing_util::MakeRandomGraph;

constexpr int kThreadCounts[] = {1, 2, 4, 8};
/// Warm and cold solve the same fixed point to the same solver tolerance;
/// they may stop on opposite sides of it, so the allowed gap is a few
/// orders above the kernels' default tolerances and far below score scale.
constexpr double kScoreTolerance = 1e-8;

/// The streamed replay: base = the oldest `n_base` articles, then
/// `num_batches` equal windows of the remainder. MakeRandomGraph only
/// cites backwards, so every corpus edge survives the suffix-only split.
struct Replay {
  CitationGraph full;
  CitationGraph base;
  std::vector<EdgeBatch> batches;
};

Replay MakeReplay(size_t n, size_t n_base, size_t num_batches,
                  uint64_t seed) {
  Replay replay;
  replay.full = MakeRandomGraph(n, 5.0, 2000, 10, seed);
  const std::vector<Year>& years = replay.full.years();
  GraphBuilder builder;
  for (size_t i = 0; i < n_base; ++i) builder.AddNode(years[i]);
  for (NodeId u = 0; u < static_cast<NodeId>(n_base); ++u) {
    for (NodeId v : replay.full.References(u)) {
      SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
    }
  }
  replay.base = std::move(builder).Build().value();
  const size_t remaining = n - n_base;
  size_t start = n_base;
  for (size_t b = 0; b < num_batches; ++b) {
    const size_t count = remaining / num_batches + (b < remaining % num_batches);
    const size_t end = start + count;
    EdgeBatch batch;
    batch.sequence = b + 1;
    batch.node_years.assign(years.begin() + start, years.begin() + end);
    for (NodeId u = static_cast<NodeId>(start); u < static_cast<NodeId>(end);
         ++u) {
      for (NodeId v : replay.full.References(u)) {
        batch.edges.push_back({u, v});
      }
    }
    replay.batches.push_back(std::move(batch));
    start = end;
  }
  return replay;
}

IncrementalRankerOptions Options(const std::string& kernel, int threads,
                                 const std::string& mode) {
  IncrementalRankerOptions options;
  options.ranker = kernel;
  options.mode = mode;
  options.config.SetInt("threads", threads);
  return options;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

class IncrementalRankProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(IncrementalRankProperty, WarmMatchesColdInFewerIterationsAllThreads) {
  const std::string kernel = GetParam();
  // pagerank and twpr solve each epoch exactly in one publication-order
  // pass, which ignores the seed: warm is cold, bit for bit. The kernels
  // that iterate must save rounds.
  const bool exact = kernel == "pagerank" || kernel == "twpr";
  const Replay replay = MakeReplay(/*n=*/1000, /*n_base=*/800,
                                   /*num_batches=*/4, /*seed=*/20180416);
  std::vector<double> reference_scores;  // warm result at threads=1
  for (int threads : kThreadCounts) {
    auto warm_result =
        IncrementalRanker::Create(Options(kernel, threads, "full"));
    ASSERT_TRUE(warm_result.ok()) << warm_result.status().ToString();
    IncrementalRanker warm = std::move(warm_result).value();
    StreamingGraph stream(replay.base);
    ASSERT_TRUE(warm.RankCold(stream.graph()).ok());

    int warm_total = 0;
    int cold_total = 0;
    std::vector<double> warm_scores;
    std::vector<double> cold_scores;
    for (const EdgeBatch& batch : replay.batches) {
      ASSERT_TRUE(stream.Ingest(batch).ok());
      Result<RankResult> epoch = warm.RankWarm(stream.graph());
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
      EXPECT_TRUE(epoch->converged);
      warm_total += epoch->iterations;
      warm_scores = epoch->scores;

      // Cold oracle of the *same* epoch graph, fresh state each time.
      IncrementalRanker cold =
          IncrementalRanker::Create(Options(kernel, threads, "full")).value();
      Result<RankResult> oracle = cold.RankCold(stream.graph());
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      cold_total += oracle->iterations;
      cold_scores = oracle->scores;

      EXPECT_LE(epoch->iterations, oracle->iterations)
          << kernel << " threads=" << threads << " epoch seq "
          << batch.sequence << ": warm start took MORE rounds than cold";
      EXPECT_LE(MaxAbsDiff(epoch->scores, oracle->scores), kScoreTolerance)
          << kernel << " threads=" << threads;
      if (exact) {
        EXPECT_EQ(epoch->scores, oracle->scores) << kernel;
        EXPECT_EQ(epoch->iterations, 1) << kernel;
      }
    }
    if (!exact) {
      EXPECT_LT(warm_total, cold_total)
          << kernel << " threads=" << threads
          << ": warm chain saved no iterations over cold re-ranks";
    }
    EXPECT_LE(MaxAbsDiff(warm_scores, cold_scores), kScoreTolerance);

    // The warm path inherits the kernels' determinism guarantee: scores
    // are bit-identical at every thread count.
    if (reference_scores.empty()) {
      reference_scores = warm_scores;
    } else {
      EXPECT_EQ(warm_scores, reference_scores)
          << kernel << ": warm scores diverged at threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, IncrementalRankProperty,
                         ::testing::Values("pagerank", "twpr", "hits", "katz",
                                           "sceas"));

TEST(FrontierModeTest, BoundedDriftAndThreadDeterminism) {
  const Replay replay = MakeReplay(1000, 800, 4, 77);
  std::vector<double> reference_scores;
  for (int threads : kThreadCounts) {
    IncrementalRankerOptions options = Options("pagerank", threads,
                                               "frontier");
    options.frontier_tolerance = 1e-12;
    IncrementalRanker warm =
        IncrementalRanker::Create(options).value();
    StreamingGraph stream(replay.base);
    ASSERT_TRUE(warm.RankCold(stream.graph()).ok());
    std::vector<double> warm_scores;
    for (const EdgeBatch& batch : replay.batches) {
      ASSERT_TRUE(stream.Ingest(batch).ok());
      // Dirty set: the batch's new nodes plus everything they cite.
      std::vector<NodeId> dirty;
      const NodeId first =
          static_cast<NodeId>(stream.num_nodes() - batch.num_nodes());
      for (NodeId u = first; u < static_cast<NodeId>(stream.num_nodes());
           ++u) {
        dirty.push_back(u);
      }
      for (const StreamEdge& e : batch.edges) dirty.push_back(e.dst);
      Result<RankResult> epoch = warm.RankWarm(stream.graph(), dirty);
      ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
      warm_scores = epoch->scores;
    }
    // Frontier freezing trades exactness for work: documented drift bound
    // (DESIGN.md, streaming section) is orders looser than mode=full.
    IncrementalRanker cold =
        IncrementalRanker::Create(Options("pagerank", threads, "full"))
            .value();
    RankResult oracle = cold.RankCold(stream.graph()).value();
    const double drift = MaxAbsDiff(warm_scores, oracle.scores);
    EXPECT_LE(drift, 1e-5) << "threads=" << threads;
    if (reference_scores.empty()) {
      reference_scores = warm_scores;
    } else {
      EXPECT_EQ(warm_scores, reference_scores)
          << "frontier scores diverged at threads=" << threads;
    }
  }
}

TEST(FrontierModeTest, RequiresPagerank) {
  EXPECT_FALSE(IncrementalRanker::Create(Options("katz", 1, "frontier")).ok());
  EXPECT_FALSE(IncrementalRanker::Create(Options("hits", 1, "bogus")).ok());
}

TEST(ExtendSeedTest, RescalesByMassAndPadsWithYoungCohortMean) {
  // Old scores are a unit distribution with mass 10: the seed is the
  // solver-native vector (scores * mass), padded for the two new nodes
  // with the mean of the youngest 10% (here: the last entry, 4.0).
  const std::vector<double> old_scores = {0.1, 0.2, 0.3, 0.4};
  std::vector<double> seed = ExtendSeedForGrownGraph(old_scores, 10.0, 6);
  ASSERT_EQ(seed.size(), 6u);
  EXPECT_DOUBLE_EQ(seed[0], 1.0);
  EXPECT_DOUBLE_EQ(seed[3], 4.0);
  EXPECT_DOUBLE_EQ(seed[4], 4.0);
  EXPECT_DOUBLE_EQ(seed[5], 4.0);
}

TEST(ExtendSeedTest, DegenerateInputsYieldNoSeed) {
  EXPECT_TRUE(ExtendSeedForGrownGraph({}, 1.0, 5).empty());
  EXPECT_TRUE(ExtendSeedForGrownGraph({0.5, 0.5}, 1.0, 1).empty());  // shrank
  EXPECT_TRUE(ExtendSeedForGrownGraph({0.5, 0.5}, 0.0, 4).empty());
  EXPECT_TRUE(ExtendSeedForGrownGraph({0.5, 0.5}, -1.0, 4).empty());
}

TEST(IncrementalRankerTest, WarmWithoutPreviousFallsBackToCold) {
  const CitationGraph graph = MakeRandomGraph(200, 4.0, 2000, 5, 3);
  IncrementalRanker ranker =
      IncrementalRanker::Create(Options("pagerank", 1, "full")).value();
  EXPECT_FALSE(ranker.has_previous());
  Result<RankResult> result = ranker.RankWarm(graph);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ranker.has_previous());
}

TEST(IncrementalRankerTest, ShrunkGraphBreaksTheWarmChain) {
  const CitationGraph big = MakeRandomGraph(200, 4.0, 2000, 5, 3);
  const CitationGraph small = MakeRandomGraph(100, 4.0, 2000, 5, 3);
  IncrementalRanker ranker =
      IncrementalRanker::Create(Options("pagerank", 1, "full")).value();
  ASSERT_TRUE(ranker.RankCold(big).ok());
  EXPECT_EQ(ranker.RankWarm(small).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace stream
}  // namespace scholar
