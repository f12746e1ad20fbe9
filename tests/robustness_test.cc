/// Failure-injection and cross-implementation property tests: corrupt
/// inputs must fail with Status (never crash), and independent
/// implementations of the same quantity must agree.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "graph/graph_io.h"
#include "graph/time_slicer.h"
#include "power_iteration_oracle.h"
#include "rank/pagerank.h"
#include "rank/time_weighted_pagerank.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;

// ---------------------------------------------------------------------------
// Corruption injection: flip bytes of a serialized graph at many positions;
// the reader must either reject with a Status or return a graph — never
// crash, never hand back something the consistency checks reject.
// ---------------------------------------------------------------------------

class BinaryCorruptionSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BinaryCorruptionSweep, CorruptedByteNeverCrashes) {
  CitationGraph g = MakeRandomGraph(60, 3.0, 1995, 8, 5);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteGraphBinary(g, &buffer).ok());
  std::string data = buffer.str();
  const size_t pos = GetParam() % data.size();
  data[pos] = static_cast<char>(data[pos] ^ 0xFF);

  std::stringstream corrupted(data,
                              std::ios::in | std::ios::out | std::ios::binary);
  Result<CitationGraph> result = ReadGraphBinary(&corrupted);
  if (result.ok()) {
    // A flip that survives validation must still yield a structurally
    // sound graph (counting-sort reverse adjacency would have aborted
    // otherwise); degree sums must match.
    size_t in_sum = 0, out_sum = 0;
    for (NodeId v = 0; v < result->num_nodes(); ++v) {
      in_sum += result->InDegree(v);
      out_sum += result->OutDegree(v);
    }
    EXPECT_EQ(in_sum, out_sum);
  } else {
    EXPECT_TRUE(result.status().IsCorruption() ||
                result.status().IsInvalidArgument())
        << result.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(BytePositions, BinaryCorruptionSweep,
                         ::testing::Values(0, 1, 3, 4, 7, 12, 16, 21, 25, 40,
                                           63, 97, 150, 260, 411, 777));

class TextCorruptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(TextCorruptionSweep, MangledLineNeverCrashes) {
  CitationGraph g = MakeRandomGraph(40, 2.5, 1995, 6, 7);
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphText(g, &buffer).ok());
  std::string text = buffer.str();

  // Mangle one line: duplicate it, truncate it, or inject garbage.
  std::vector<std::string> lines;
  for (auto part : Split(text, '\n')) lines.emplace_back(part);
  Rng rng(static_cast<uint64_t>(GetParam()));
  size_t idx = 1 + rng.NextBounded(lines.size() - 2);
  switch (GetParam() % 3) {
    case 0:
      lines[idx] = "garbage here";
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<long>(idx), lines[idx]);
      break;
    default:
      lines[idx] = lines[idx].substr(0, lines[idx].size() / 2) + "x";
      break;
  }
  std::string mangled;
  for (const auto& line : lines) {
    mangled += line;
    mangled += '\n';
  }
  std::stringstream in(mangled);
  Result<CitationGraph> result = ReadGraphText(&in);
  // Either rejected or parsed; both acceptable, crash is not.
  if (!result.ok()) {
    EXPECT_FALSE(result.status().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Mutations, TextCorruptionSweep,
                         ::testing::Range(0, 18));

// ---------------------------------------------------------------------------
// Cross-implementation agreement.
// ---------------------------------------------------------------------------

/// O(n^2) reference Kendall tau (tie-free inputs).
double BruteForceTau(const std::vector<double>& a,
                     const std::vector<double>& b) {
  int64_t concordant = 0, discordant = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = i + 1; j < a.size(); ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da * db > 0) ++concordant;
      else if (da * db < 0) ++discordant;
    }
  }
  const double total = static_cast<double>(a.size()) * (a.size() - 1) / 2.0;
  return (concordant - discordant) / total;
}

class TauCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TauCrossCheck, MergeSortMatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<double> a(120), b(120);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble();
    b[i] = 0.5 * a[i] + 0.5 * rng.NextDouble();
  }
  EXPECT_NEAR(KendallTau(a, b).value(), BruteForceTau(a, b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TauCrossCheck,
                         ::testing::Values(1, 2, 3, 4, 5));

class SolverCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverCrossCheck, PowerIterationAndGaussSeidelAgree) {
  // The publication-order solver (one pass here, Gauss–Seidel passes on
  // dirty graphs) against the power-iteration oracle.
  CitationGraph g = MakeRandomGraph(250, 4.0, 1985, 15, GetParam());
  TwprOptions o;
  o.sigma = 0.3;
  RankResult gs = TimeWeightedPageRank(o).Rank(g).value();
  RankResult power = oracle::PowerIteration(g, oracle::TwprWeights(g, 0.3),
                                            {}, 0.85, 1e-15, 5000);
  EXPECT_LE(oracle::L1(gs.scores, power.scores), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverCrossCheck,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Snapshot algebra: nested snapshots compose.
// ---------------------------------------------------------------------------

class SnapshotNesting : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotNesting, SnapshotOfSnapshotEqualsDirectSnapshot) {
  CitationGraph g = MakeRandomGraph(300, 4.0, 1980, 20, GetParam());
  const Year outer = 1994, inner = 1988;
  Snapshot big = ExtractSnapshot(g, outer);
  Snapshot nested = ExtractSnapshot(big.graph, inner);
  Snapshot direct = ExtractSnapshot(g, inner);
  EXPECT_EQ(nested.graph, direct.graph);
  // Composed mappings agree with the direct mapping.
  ASSERT_EQ(nested.to_parent.size(), direct.to_parent.size());
  for (NodeId s = 0; s < nested.graph.num_nodes(); ++s) {
    EXPECT_EQ(big.to_parent[nested.to_parent[s]], direct.to_parent[s]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotNesting,
                         ::testing::Values(3, 7, 31));

// ---------------------------------------------------------------------------
// Ranking invariance: relabel-stability under year-preserving structure.
// ---------------------------------------------------------------------------

TEST(RankerInvarianceTest, DuplicatedGraphHalvesScores) {
  // Two disjoint copies of the same graph: every article's PageRank halves
  // but the within-copy ordering is untouched.
  CitationGraph g = MakeRandomGraph(150, 4.0, 1990, 10, 9);
  GraphBuilder builder;
  for (int copy = 0; copy < 2; ++copy) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) builder.AddNode(g.year(u));
  }
  const NodeId offset = static_cast<NodeId>(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.References(u)) {
      SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
      SCHOLAR_CHECK_OK(builder.AddEdge(u + offset, v + offset));
    }
  }
  CitationGraph doubled = std::move(builder).Build().value();

  RankResult single = PageRankRanker().Rank(g).value();
  RankResult both = PageRankRanker().Rank(doubled).value();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_NEAR(both.scores[u], single.scores[u] / 2.0, 1e-9);
    EXPECT_NEAR(both.scores[u + offset], single.scores[u] / 2.0, 1e-9);
  }
}

}  // namespace
}  // namespace scholar
