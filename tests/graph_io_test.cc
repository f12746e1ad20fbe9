#include "graph/graph_io.h"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>
#include "test_util.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

TEST(GraphTextIoTest, RoundTripTiny) {
  CitationGraph g = MakeTinyGraph();
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphText(g, &buffer).ok());
  CitationGraph back = ReadGraphText(&buffer).value();
  EXPECT_EQ(back, g);
}

TEST(GraphTextIoTest, RoundTripEmpty) {
  CitationGraph g;
  std::stringstream buffer;
  ASSERT_TRUE(WriteGraphText(g, &buffer).ok());
  CitationGraph back = ReadGraphText(&buffer).value();
  EXPECT_EQ(back.num_nodes(), 0u);
}

TEST(GraphTextIoTest, IgnoresCommentsAndBlankLines) {
  std::stringstream in(
      "#scholarrank-graph-v1\n"
      "# a comment\n"
      "2 1\n"
      "\n"
      "2000\n"
      "# another\n"
      "2001\n"
      "1 0\n");
  CitationGraph g = ReadGraphText(&in).value();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(1, 0));
}

TEST(GraphTextIoTest, RejectsMissingSignature) {
  std::stringstream in("2 0\n2000\n2001\n");
  EXPECT_TRUE(ReadGraphText(&in).status().IsCorruption());
}

TEST(GraphTextIoTest, RejectsTruncatedYears) {
  std::stringstream in("#scholarrank-graph-v1\n3 0\n2000\n");
  EXPECT_TRUE(ReadGraphText(&in).status().IsCorruption());
}

TEST(GraphTextIoTest, RejectsTruncatedEdges) {
  std::stringstream in("#scholarrank-graph-v1\n2 2\n2000\n2001\n1 0\n");
  EXPECT_TRUE(ReadGraphText(&in).status().IsCorruption());
}

TEST(GraphTextIoTest, RejectsOutOfRangeEdge) {
  std::stringstream in("#scholarrank-graph-v1\n2 1\n2000\n2001\n1 7\n");
  EXPECT_FALSE(ReadGraphText(&in).ok());
}

TEST(GraphTextIoTest, RejectsMalformedEdgeLine) {
  std::stringstream in("#scholarrank-graph-v1\n2 1\n2000\n2001\n1 0 9\n");
  EXPECT_TRUE(ReadGraphText(&in).status().IsCorruption());
}

TEST(GraphTextIoTest, RejectsNegativeYear) {
  std::stringstream in("#scholarrank-graph-v1\n2 0\n2000\n-5\n");
  Status s = ReadGraphText(&in).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("implausible year -5"), std::string::npos) << s.ToString();
  // The bad year sits on source line 4 (signature, counts, node 0, node 1).
  EXPECT_NE(s.message().find("line 4"), std::string::npos) << s.ToString();
}

TEST(GraphTextIoTest, RejectsAbsurdlyLargeYear) {
  std::stringstream in("#scholarrank-graph-v1\n1 0\n99999999999\n");
  Status s = ReadGraphText(&in).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("implausible year"), std::string::npos) << s.ToString();
}

TEST(GraphTextIoTest, AcceptsUnknownYearSentinel) {
  std::stringstream in("#scholarrank-graph-v1\n1 0\n" +
                       std::to_string(kUnknownYear) + "\n");
  CitationGraph g = ReadGraphText(&in).value();
  EXPECT_EQ(g.year(0), kUnknownYear);
}

TEST(GraphTextIoTest, RejectsSelfLoopWithLineNumber) {
  std::stringstream in("#scholarrank-graph-v1\n2 2\n2000\n2001\n1 0\n1 1\n");
  Status s = ReadGraphText(&in).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("self-loop citation at node 1"),
            std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find("line 6"), std::string::npos) << s.ToString();
}

TEST(GraphTextIoTest, RejectsDuplicateEdgeWithLineNumber) {
  std::stringstream in(
      "#scholarrank-graph-v1\n3 3\n2000\n2001\n2002\n2 0\n2 1\n2 0\n");
  Status s = ReadGraphText(&in).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("duplicate edge 2 -> 0"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("line 8"), std::string::npos) << s.ToString();
}

TEST(GraphTextIoTest, RejectsEdgeIdAboveNodeIdRange) {
  // 2^32 + 1 must fail the int64 range check, not wrap to node 1.
  std::stringstream in("#scholarrank-graph-v1\n2 1\n2000\n2001\n4294967297 0\n");
  Status s = ReadGraphText(&in).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("out of range"), std::string::npos) << s.ToString();
}

TEST(GraphBinaryIoTest, RoundTripTiny) {
  CitationGraph g = MakeTinyGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteGraphBinary(g, &buffer).ok());
  CitationGraph back = ReadGraphBinary(&buffer).value();
  EXPECT_EQ(back, g);
}

TEST(GraphBinaryIoTest, RejectsBadMagic) {
  std::stringstream buffer("XXXXjunkjunkjunk");
  EXPECT_TRUE(ReadGraphBinary(&buffer).status().IsCorruption());
}

TEST(GraphBinaryIoTest, RejectsTruncatedPayload) {
  CitationGraph g = MakeTinyGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteGraphBinary(g, &buffer).ok());
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data,
                              std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_TRUE(ReadGraphBinary(&truncated).status().IsCorruption());
}

TEST(GraphBinaryIoTest, RejectsImplausibleYearPayload) {
  CitationGraph g = MakeTinyGraph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteGraphBinary(g, &buffer).ok());
  std::string data = buffer.str();
  // Overwrite node 0's year (first element after the 4-byte magic and two
  // u64 counts) with a nonsense value.
  const int32_t bogus = -123456;
  data.replace(4 + 16, sizeof(bogus),
               reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  std::stringstream patched(data,
                            std::ios::in | std::ios::out | std::ios::binary);
  Status s = ReadGraphBinary(&patched).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("implausible year"), std::string::npos) << s.ToString();
}

TEST(GraphBinaryIoTest, RejectsAbsurdDeclaredCounts) {
  // A header declaring 2^40 nodes must fail the plausibility bound rather
  // than attempt a terabyte allocation.
  std::string data = "SRG1";
  const uint64_t n = uint64_t{1} << 40;
  const uint64_t m = 0;
  data.append(reinterpret_cast<const char*>(&n), sizeof(n));
  data.append(reinterpret_cast<const char*>(&m), sizeof(m));
  std::stringstream in(data, std::ios::in | std::ios::out | std::ios::binary);
  Status s = ReadGraphBinary(&in).status();
  ASSERT_TRUE(s.IsCorruption());
  EXPECT_NE(s.message().find("implausible"), std::string::npos) << s.ToString();
}

TEST(GraphIoFileTest, FileRoundTripBothFormats) {
  CitationGraph g = MakeRandomGraph(100, 3.0, 1995, 8, 5);
  const std::string text_path = ::testing::TempDir() + "/g.txt";
  const std::string bin_path = ::testing::TempDir() + "/g.bin";
  ASSERT_TRUE(WriteGraphTextFile(g, text_path).ok());
  ASSERT_TRUE(WriteGraphBinaryFile(g, bin_path).ok());
  EXPECT_EQ(ReadGraphTextFile(text_path).value(), g);
  EXPECT_EQ(ReadGraphBinaryFile(bin_path).value(), g);
}

// /dev/full accepts open() and buffered writes but fails the flush.
TEST(GraphIoFileTest, TextWriteFailedFinalFlushIsIOError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status status = WriteGraphTextFile(MakeTinyGraph(), "/dev/full");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(GraphIoFileTest, BinaryWriteFailedFinalFlushIsIOError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status status = WriteGraphBinaryFile(MakeTinyGraph(), "/dev/full");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(GraphIoFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadGraphTextFile("/nonexistent/g.txt").status().IsIOError());
  EXPECT_TRUE(ReadGraphBinaryFile("/nonexistent/g.bin").status().IsIOError());
}

class GraphIoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphIoPropertyTest, TextAndBinaryAgree) {
  CitationGraph g = MakeRandomGraph(150, 4.0, 1990, 12, GetParam());
  std::stringstream text_buf, bin_buf(std::ios::in | std::ios::out |
                                      std::ios::binary);
  ASSERT_TRUE(WriteGraphText(g, &text_buf).ok());
  ASSERT_TRUE(WriteGraphBinary(g, &bin_buf).ok());
  CitationGraph from_text = ReadGraphText(&text_buf).value();
  CitationGraph from_bin = ReadGraphBinary(&bin_buf).value();
  EXPECT_EQ(from_text, g);
  EXPECT_EQ(from_bin, g);
  EXPECT_EQ(from_text, from_bin);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphIoPropertyTest,
                         ::testing::Values(1, 7, 23, 101));

}  // namespace
}  // namespace scholar
