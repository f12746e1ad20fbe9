#include "stream/epoch_pipeline.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace scholar {
namespace stream {
namespace {

using testing_util::MakeTinyGraph;

EdgeBatch Batch(uint64_t sequence, std::vector<Year> years,
                std::vector<StreamEdge> edges) {
  EdgeBatch batch;
  batch.sequence = sequence;
  batch.node_years = std::move(years);
  batch.edges = std::move(edges);
  return batch;
}

/// Publisher that records every publication it receives.
struct Capture {
  std::vector<uint64_t> epochs;
  std::vector<size_t> graph_sizes;
  std::vector<size_t> score_sizes;
  Status to_return = Status::OK();

  EpochPublisher AsPublisher() {
    return [this](const CitationGraph& graph, const RankResult& result,
                  const EpochStats& stats) -> Status {
      epochs.push_back(stats.epoch);
      graph_sizes.push_back(graph.num_nodes());
      score_sizes.push_back(result.scores.size());
      return to_return;
    };
  }
};

struct PipelineUnderTest {
  PipelineUnderTest() {
    IncrementalRankerOptions options;
    options.ranker = "pagerank";
    ranker.emplace(IncrementalRanker::Create(options).value());
    graph.emplace(MakeTinyGraph());
    pipeline.emplace(&*graph, &*ranker, capture.AsPublisher());
  }

  Capture capture;
  std::optional<IncrementalRanker> ranker;
  std::optional<StreamingGraph> graph;
  std::optional<EpochPipeline> pipeline;
};

TEST(EpochPipelineTest, BootstrapColdRanksAndPublishesEpochZero) {
  PipelineUnderTest t;
  ASSERT_TRUE(t.pipeline->Bootstrap().ok());
  ASSERT_EQ(t.capture.epochs.size(), 1u);
  EXPECT_EQ(t.capture.epochs[0], 0u);
  EXPECT_EQ(t.capture.graph_sizes[0], 5u);
  EXPECT_EQ(t.capture.score_sizes[0], 5u);
  ASSERT_EQ(t.pipeline->history().size(), 1u);
  const EpochStats& stats = t.pipeline->history()[0];
  EXPECT_EQ(stats.epoch, 0u);
  EXPECT_EQ(stats.num_nodes, 5u);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_TRUE(stats.converged);
}

TEST(EpochPipelineTest, StepAppliesRanksAndPublishes) {
  PipelineUnderTest t;
  ASSERT_TRUE(t.pipeline->Bootstrap().ok());
  Result<EpochStats> stats =
      t.pipeline->Step(Batch(1, {2005, 2005}, {{5, 0}, {5, 4}, {6, 2}}));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->batches_applied, 1u);
  EXPECT_EQ(stats->nodes_added, 2u);
  EXPECT_EQ(stats->edges_added, 3u);
  EXPECT_EQ(stats->num_nodes, 7u);
  EXPECT_EQ(stats->num_edges, 9u);
  EXPECT_GT(stats->iterations, 0);
  ASSERT_EQ(t.capture.epochs.size(), 2u);
  EXPECT_EQ(t.capture.graph_sizes[1], 7u);
  EXPECT_EQ(t.capture.score_sizes[1], 7u);
}

TEST(EpochPipelineTest, StagedBatchPublishesNothing) {
  PipelineUnderTest t;
  ASSERT_TRUE(t.pipeline->Bootstrap().ok());
  // Sequence 2 while 1 is still missing: parked, nothing ranked.
  Result<EpochStats> stats = t.pipeline->Step(Batch(2, {2006}, {{6, 0}}));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->batches_applied, 0u);
  EXPECT_EQ(stats->iterations, 0);
  EXPECT_EQ(t.capture.epochs.size(), 1u);  // bootstrap only

  // The gap fills: one Step applies both batches and publishes once.
  Result<EpochStats> drained = t.pipeline->Step(Batch(1, {2005}, {{5, 1}}));
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->batches_applied, 2u);
  EXPECT_EQ(drained->nodes_added, 2u);
  EXPECT_EQ(drained->num_nodes, 7u);
  EXPECT_EQ(t.capture.epochs.size(), 2u);
  EXPECT_EQ(t.capture.graph_sizes[1], 7u);
}

TEST(EpochPipelineTest, InvalidBatchLeavesPipelineServingLastEpoch) {
  PipelineUnderTest t;
  ASSERT_TRUE(t.pipeline->Bootstrap().ok());
  Result<EpochStats> bad = t.pipeline->Step(Batch(1, {2005}, {{5, 99}}));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(t.capture.epochs.size(), 1u);
  EXPECT_EQ(t.graph->num_nodes(), 5u);
  // The stream is not wedged: a corrected batch 1 still applies.
  Result<EpochStats> good = t.pipeline->Step(Batch(1, {2005}, {{5, 0}}));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->batches_applied, 1u);
}

TEST(EpochPipelineTest, PublisherErrorPropagates) {
  PipelineUnderTest t;
  t.capture.to_return = Status::IOError("disk full");
  EXPECT_FALSE(t.pipeline->Bootstrap().ok());
}

TEST(EpochPipelineTest, TotalIterationsSumsRankedEpochs) {
  PipelineUnderTest t;
  ASSERT_TRUE(t.pipeline->Bootstrap().ok());
  ASSERT_TRUE(t.pipeline->Step(Batch(1, {2005}, {{5, 0}})).ok());
  ASSERT_TRUE(t.pipeline->Step(Batch(2, {2006}, {{6, 5}})).ok());
  int sum = 0;
  for (const EpochStats& stats : t.pipeline->history()) {
    sum += stats.iterations;
  }
  EXPECT_EQ(t.pipeline->total_iterations(), sum);
  EXPECT_GT(sum, 0);
}

}  // namespace
}  // namespace stream
}  // namespace scholar
