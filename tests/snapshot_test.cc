#include "serve/snapshot.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rank/ranker.h"
#include "test_util.h"

namespace scholar {
namespace serve {
namespace {

using testing_util::MakeTinyGraph;

RankingOutput MakeRanking(const std::vector<double>& scores) {
  RankingOutput out;
  out.scores = scores;
  out.ranks = ScoresToRanks(scores);
  out.percentiles = RankPercentiles(scores);
  return out;
}

SnapshotMeta TestMeta(uint64_t id = 7) {
  SnapshotMeta meta;
  meta.snapshot_id = id;
  meta.created_unix = 1700000000;
  meta.ranker_name = "twpr";
  meta.corpus_name = "tiny";
  return meta;
}

ScoreSnapshot TinySnapshot(uint64_t id = 7) {
  CitationGraph graph = MakeTinyGraph();
  RankingOutput ranking = MakeRanking({0.30, 0.10, 0.25, 0.20, 0.15});
  return ScoreSnapshot::Build(graph, ranking, TestMeta(id)).value();
}

std::string Serialize(const ScoreSnapshot& snapshot) {
  std::ostringstream out(std::ios::binary);
  SCHOLAR_CHECK_OK(snapshot.WriteTo(&out));
  return out.str();
}

Result<ScoreSnapshot> Deserialize(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return ScoreSnapshot::Read(&in);
}

TEST(ScoreSnapshotTest, BuildExposesRankingAndGraphViews) {
  ScoreSnapshot snap = TinySnapshot();
  ASSERT_EQ(snap.num_nodes(), 5u);
  ASSERT_EQ(snap.num_edges(), 6u);
  EXPECT_DOUBLE_EQ(snap.score(0), 0.30);
  EXPECT_EQ(snap.rank(0), 0u);
  EXPECT_EQ(snap.rank(1), 4u);
  EXPECT_DOUBLE_EQ(snap.percentile(0), 1.0);
  EXPECT_EQ(snap.year(4), 2004);

  // Top is the precomputed descending order: 0, 2, 3, 4, 1.
  std::span<const NodeId> top = snap.Top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
  EXPECT_EQ(snap.Top(100).size(), 5u);  // k clamps

  // Paging walks the same order.
  std::span<const NodeId> page = snap.TopPage(3, 10);
  ASSERT_EQ(page.size(), 2u);
  EXPECT_EQ(page[0], 4u);
  EXPECT_EQ(page[1], 1u);
  EXPECT_TRUE(snap.TopPage(5, 10).empty());

  // Adjacency matches the source graph: node 2 is cited by 3 and 4.
  std::span<const NodeId> citers = snap.Citers(2);
  ASSERT_EQ(citers.size(), 2u);
  EXPECT_EQ(citers[0], 3u);
  EXPECT_EQ(citers[1], 4u);
  std::span<const NodeId> refs = snap.References(2);
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0], 0u);
  EXPECT_EQ(refs[1], 1u);
}

TEST(ScoreSnapshotTest, BuildRejectsShapeMismatch) {
  CitationGraph graph = MakeTinyGraph();
  RankingOutput ranking = MakeRanking({0.5, 0.5});  // 2 scores, 5 nodes
  EXPECT_TRUE(ScoreSnapshot::Build(graph, ranking, TestMeta())
                  .status()
                  .IsInvalidArgument());
}

TEST(ScoreSnapshotTest, RoundTripPreservesEverything) {
  ScoreSnapshot original = TinySnapshot();
  ScoreSnapshot reread = Deserialize(Serialize(original)).value();
  EXPECT_EQ(reread, original);
  EXPECT_EQ(reread.meta(), original.meta());
}

TEST(ScoreSnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/snap_roundtrip.bin";
  ScoreSnapshot original = TinySnapshot();
  ASSERT_TRUE(original.WriteToFile(path).ok());
  ScoreSnapshot reread = ScoreSnapshot::ReadFile(path).value();
  EXPECT_EQ(reread, original);
}

// /dev/full accepts open() and buffered writes but fails the flush.
TEST(ScoreSnapshotTest, WriteFailedFinalFlushIsIOError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const Status status = TinySnapshot().WriteToFile("/dev/full");
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_EQ(status.message(), "short write: /dev/full");
}

TEST(ScoreSnapshotTest, EmptyGraphRoundTrips) {
  CitationGraph graph;
  RankingOutput ranking;  // all views empty
  ScoreSnapshot snap =
      ScoreSnapshot::Build(graph, ranking, TestMeta()).value();
  ScoreSnapshot reread = Deserialize(Serialize(snap)).value();
  EXPECT_EQ(reread.num_nodes(), 0u);
  EXPECT_TRUE(reread.Top(10).empty());
}

TEST(ScoreSnapshotTest, EveryTruncationIsRejected) {
  const std::string bytes = Serialize(TinySnapshot());
  // No prefix of a valid snapshot parses: truncation anywhere — header,
  // section table, or payload — must surface as Corruption, never as a
  // short-but-accepted artifact.
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<ScoreSnapshot> result = Deserialize(bytes.substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_TRUE(result.status().IsCorruption()) << "prefix " << len;
  }
}

TEST(ScoreSnapshotTest, PayloadBitFlipFailsChecksum) {
  const std::string clean = Serialize(TinySnapshot());
  // Flip one byte near the end (inside some payload section, well past the
  // header) and expect a checksum mismatch.
  std::string corrupt = clean;
  corrupt[corrupt.size() - 3] ^= 0x40;
  Result<ScoreSnapshot> result = Deserialize(corrupt);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status().ToString();
}

TEST(ScoreSnapshotTest, BadMagicAndVersionAreRejected) {
  std::string bytes = Serialize(TinySnapshot());
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_TRUE(Deserialize(wrong_magic).status().IsCorruption());

  std::string wrong_version = bytes;
  wrong_version[4] = 99;  // version field follows the 4-byte magic
  Result<ScoreSnapshot> result = Deserialize(wrong_version);
  ASSERT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

// Byte offsets into a serialized TinySnapshot, fixed by the format: 4-byte
// magic, u32 version, u64 n, u64 m, u64 snapshot_id, i64 created_unix,
// then the u32 length prefix of the ranker name.
constexpr size_t kNodeCountOffset = 8;
constexpr size_t kRankerNameLenOffset = 40;

TEST(ScoreSnapshotTest, ShortOfHeaderIsTypedTruncationError) {
  const std::string bytes = Serialize(TinySnapshot());
  // 10 bytes: full magic + version, but the header counts are cut off.
  Result<ScoreSnapshot> result = Deserialize(bytes.substr(0, 10));
  ASSERT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("truncated snapshot header"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ScoreSnapshotTest, ImplausibleNodeCountIsRejectedBeforeAllocation) {
  std::string bytes = Serialize(TinySnapshot());
  const uint64_t absurd = uint64_t{1} << 40;
  bytes.replace(kNodeCountOffset, sizeof(absurd),
                reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  Result<ScoreSnapshot> result = Deserialize(bytes);
  ASSERT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("implausible snapshot header"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ScoreSnapshotTest, ImplausibleMetaStringLengthIsRejected) {
  std::string bytes = Serialize(TinySnapshot());
  const uint32_t absurd = 0xFFFFFFFFu;
  bytes.replace(kRankerNameLenOffset, sizeof(absurd),
                reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  Result<ScoreSnapshot> result = Deserialize(bytes);
  ASSERT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("implausible ranker name length"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ScoreSnapshotTest, DeclaredSectionBytesOverflowingFileIsRejected) {
  // Inflate the first section header's payload_bytes so the table's declared
  // total exceeds the file size; the reader must reject it up front from the
  // seekable-stream size probe instead of reading gigabytes of nothing.
  std::string bytes = Serialize(TinySnapshot());
  // Section table begins after the meta strings ("twpr", "tiny"): u32 count,
  // then {u32 tag, u64 payload_bytes, u32 crc} records.
  const size_t table_offset = kRankerNameLenOffset + (4 + 4) + (4 + 4);
  const size_t first_payload_bytes_offset = table_offset + 4 + 4;
  const uint64_t absurd = uint64_t{1} << 40;
  bytes.replace(first_payload_bytes_offset, sizeof(absurd),
                reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  Result<ScoreSnapshot> result = Deserialize(bytes);
  ASSERT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("remain in the file"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ScoreSnapshotTest, WrongSectionCountIsRejected) {
  std::string bytes = Serialize(TinySnapshot());
  const size_t count_offset = kRankerNameLenOffset + (4 + 4) + (4 + 4);
  const uint32_t wrong = 3;
  bytes.replace(count_offset, sizeof(wrong),
                reinterpret_cast<const char*>(&wrong), sizeof(wrong));
  Result<ScoreSnapshot> result = Deserialize(bytes);
  ASSERT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().message().find("sections"), std::string::npos)
      << result.status().ToString();
}

TEST(ScoreSnapshotTest, GarbageFileIsRejected) {
  EXPECT_TRUE(Deserialize("not a snapshot at all").status().IsCorruption());
  EXPECT_TRUE(Deserialize("").status().IsCorruption());
}

TEST(ScoreSnapshotTest, MissingFileIsIOError) {
  EXPECT_TRUE(
      ScoreSnapshot::ReadFile("/nonexistent/snap.bin").status().IsIOError());
}

}  // namespace
}  // namespace serve
}  // namespace scholar
