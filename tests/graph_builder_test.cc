#include "graph/graph_builder.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace scholar {
namespace {

TEST(GraphBuilderTest, EmptyBuild) {
  GraphBuilder builder;
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.min_year(), kUnknownYear);
}

TEST(GraphBuilderTest, NodesGetSequentialIds) {
  GraphBuilder builder;
  EXPECT_EQ(builder.AddNode(2000), 0u);
  EXPECT_EQ(builder.AddNode(2001), 1u);
  EXPECT_EQ(builder.AddNodes(3, 2002), 2u);
  EXPECT_EQ(builder.num_nodes(), 5u);
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.year(0), 2000);
  EXPECT_EQ(g.year(4), 2002);
  EXPECT_EQ(g.min_year(), 2000);
  EXPECT_EQ(g.max_year(), 2002);
}

TEST(GraphBuilderTest, BasicEdges) {
  GraphBuilder builder;
  builder.AddNodes(3, 2000);
  ASSERT_TRUE(builder.AddEdge(2, 0).ok());
  ASSERT_TRUE(builder.AddEdge(2, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.OutDegree(2), 2u);
  EXPECT_EQ(g.InDegree(0), 2u);
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphBuilderTest, EdgeToUnknownNodeFails) {
  GraphBuilder builder;
  builder.AddNodes(2, 2000);
  EXPECT_TRUE(builder.AddEdge(0, 5).IsInvalidArgument());
  EXPECT_TRUE(builder.AddEdge(5, 0).IsInvalidArgument());
}

TEST(GraphBuilderTest, SelfLoopsDroppedByDefault) {
  GraphBuilder builder;
  builder.AddNodes(2, 2000);
  ASSERT_TRUE(builder.AddEdge(1, 1).ok());  // dropped silently
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, SelfLoopsRejectedWhenConfigured) {
  GraphBuilder builder(GraphBuilder::Options{.drop_self_loops = false});
  builder.AddNodes(2, 2000);
  EXPECT_TRUE(builder.AddEdge(1, 1).IsInvalidArgument());
}

TEST(GraphBuilderTest, ParallelEdgesDedupedByDefault) {
  GraphBuilder builder;
  builder.AddNodes(2, 2000);
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, ParallelEdgesRejectedWhenConfigured) {
  GraphBuilder builder(
      GraphBuilder::Options{.dedup_parallel_edges = false});
  builder.AddNodes(2, 2000);
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  EXPECT_TRUE(std::move(builder).Build().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, BackwardTimeEdgesAllowedByDefault) {
  GraphBuilder builder;
  builder.AddNode(2000);
  builder.AddNode(2010);
  // Article 0 (2000) citing article 1 (2010): dirty but accepted.
  EXPECT_TRUE(builder.AddEdge(0, 1).ok());
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, BackwardTimeEdgesRejectedWhenConfigured) {
  GraphBuilder builder(
      GraphBuilder::Options{.forbid_backward_time_edges = true});
  builder.AddNode(2000);
  builder.AddNode(2010);
  EXPECT_TRUE(builder.AddEdge(0, 1).IsInvalidArgument());
  EXPECT_TRUE(builder.AddEdge(1, 0).ok());   // forward in time
  builder.AddNode(2010);
  EXPECT_TRUE(builder.AddEdge(2, 1).ok());   // same year is fine
}

TEST(GraphBuilderTest, AdjacencyListsAreSorted) {
  GraphBuilder builder;
  builder.AddNodes(5, 2000);
  ASSERT_TRUE(builder.AddEdge(4, 3).ok());
  ASSERT_TRUE(builder.AddEdge(4, 0).ok());
  ASSERT_TRUE(builder.AddEdge(4, 2).ok());
  CitationGraph g = std::move(builder).Build().value();
  auto refs = g.References(4);
  EXPECT_TRUE(std::is_sorted(refs.begin(), refs.end()));
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0], 0u);
  EXPECT_EQ(refs[2], 3u);
}

TEST(GraphBuilderTest, AddEdgesBulk) {
  GraphBuilder builder;
  builder.AddNodes(4, 2000);
  ASSERT_TRUE(builder.AddEdges({{1, 0}, {2, 0}, {3, 1}}).ok());
  EXPECT_EQ(builder.num_pending_edges(), 3u);
  CitationGraph g = std::move(builder).Build().value();
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(GraphBuilderTest, AddEdgesBulkStopsOnFirstError) {
  GraphBuilder builder;
  builder.AddNodes(2, 2000);
  EXPECT_TRUE(builder.AddEdges({{1, 0}, {9, 0}}).IsInvalidArgument());
}

/// The global (u, v) sort that Build replaced, as an oracle: sort, then
/// drop or report duplicates, then lay out the CSR.
Result<CitationGraph> SortOracle(std::vector<Year> years,
                                 std::vector<std::pair<NodeId, NodeId>> edges,
                                 bool dedup) {
  std::sort(edges.begin(), edges.end());
  if (dedup) {
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  } else if (auto dup = std::adjacent_find(edges.begin(), edges.end());
             dup != edges.end()) {
    return Status::InvalidArgument("duplicate citation (" +
                                   std::to_string(dup->first) + "," +
                                   std::to_string(dup->second) + ")");
  }
  std::vector<EdgeId> offsets(years.size() + 1, 0);
  for (const auto& [u, v] : edges) ++offsets[u + 1];
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> neighbors;
  for (const auto& [u, v] : edges) neighbors.push_back(v);
  return CitationGraph::FromCsr(std::move(years), std::move(offsets),
                                std::move(neighbors));
}

TEST(GraphBuilderTest, BuildMatchesSortOracleOnRandomEdgeLists) {
  Rng rng(20240611);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = 1 + rng.NextBounded(trial % 3 == 0 ? 5 : 80);
    const size_t m = rng.NextBounded(trial % 4 == 0 ? 2000 : 300);
    std::vector<Year> years(n);
    for (Year& y : years) y = 1990 + static_cast<Year>(rng.NextBounded(30));
    // Random order with self-loops and repeats; a few hub sources give
    // rows longer than the insertion-sort cutoff.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (size_t e = 0; e < m; ++e) {
      const NodeId u = static_cast<NodeId>(
          rng.NextBounded(4) == 0 ? rng.NextBounded(std::min<size_t>(n, 3))
                                  : rng.NextBounded(n));
      edges.emplace_back(u, static_cast<NodeId>(rng.NextBounded(n)));
    }
    std::vector<std::pair<NodeId, NodeId>> kept;
    for (const auto& edge : edges) {
      if (edge.first != edge.second) kept.push_back(edge);
    }
    for (bool dedup : {true, false}) {
      SCOPED_TRACE("trial " + std::to_string(trial) +
                   " dedup=" + std::to_string(dedup));
      GraphBuilder builder(
          GraphBuilder::Options{.dedup_parallel_edges = dedup});
      for (Year y : years) builder.AddNode(y);
      ASSERT_TRUE(builder.AddEdges(edges).ok());
      Result<CitationGraph> got = std::move(builder).Build();
      Result<CitationGraph> want = SortOracle(years, kept, dedup);
      ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
      if (!want.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
        EXPECT_EQ(got.status().message(), want.status().message());
        continue;
      }
      EXPECT_EQ(got.value(), want.value());
      EXPECT_EQ(got->in_offsets(), want->in_offsets());
      EXPECT_EQ(got->in_neighbors(), want->in_neighbors());
    }
  }
}

TEST(GraphBuilderTest, ReserveEdgesKeepsTheGraph) {
  GraphBuilder plain;
  GraphBuilder reserved;
  reserved.ReserveEdges(10);
  for (GraphBuilder* b : {&plain, &reserved}) {
    b->AddNodes(3, 2000);
    ASSERT_TRUE(b->AddEdges({{2, 1}, {1, 0}, {2, 0}}).ok());
  }
  EXPECT_EQ(std::move(reserved).Build().value(),
            std::move(plain).Build().value());
}

}  // namespace
}  // namespace scholar
