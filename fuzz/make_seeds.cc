// Regenerates the checked-in fuzz corpora under fuzz/corpus/.
//
//   build/fuzz/scholar_make_seeds fuzz/corpus
//
// Seeds are valid files produced by the real writers, so every corpus
// tracks the current format automatically; regression inputs are the
// malformed shapes the parsers must keep rejecting (truncations, bit
// flips, wraparound ids, inflated counts). Run after changing a format
// and commit the result — the replay tests and the fuzzers both start
// from these directories.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/ground_truth.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "rank/ranker.h"
#include "serve/snapshot.h"
#include "stream/edge_batch.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace {

using scholar::CitationGraph;
using scholar::GraphBuilder;
using scholar::RankingOutput;

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SCHOLAR_CHECK(static_cast<bool>(out));
}

CitationGraph TinyGraph() {
  GraphBuilder builder;
  for (int i = 0; i < 5; ++i) {
    builder.AddNode(static_cast<scholar::Year>(2000 + i));
  }
  SCHOLAR_CHECK_OK(builder.AddEdge(1, 0));
  SCHOLAR_CHECK_OK(builder.AddEdge(2, 0));
  SCHOLAR_CHECK_OK(builder.AddEdge(2, 1));
  SCHOLAR_CHECK_OK(builder.AddEdge(3, 2));
  SCHOLAR_CHECK_OK(builder.AddEdge(4, 2));
  SCHOLAR_CHECK_OK(builder.AddEdge(4, 3));
  return std::move(builder).Build().value();
}

void MakeGraphIoCorpus(const std::filesystem::path& root) {
  const CitationGraph graph = TinyGraph();
  std::stringstream text;
  SCHOLAR_CHECK_OK(scholar::WriteGraphText(graph, &text));
  WriteFile(root / "seed" / "tiny_text", text.str());

  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  SCHOLAR_CHECK_OK(scholar::WriteGraphBinary(graph, &binary));
  const std::string binary_bytes = binary.str();
  WriteFile(root / "seed" / "tiny_binary", binary_bytes);

  // Shapes the text parser must keep rejecting.
  WriteFile(root / "regression" / "wraparound_id",
            "#scholarrank-graph-v1\n2 1\n2000\n2001\n4294967297 0\n");
  WriteFile(root / "regression" / "self_loop",
            "#scholarrank-graph-v1\n2 1\n2000\n2001\n1 1\n");
  WriteFile(root / "regression" / "duplicate_edge",
            "#scholarrank-graph-v1\n2 2\n2000\n2001\n1 0\n1 0\n");
  WriteFile(root / "regression" / "implausible_year",
            "#scholarrank-graph-v1\n1 0\n99999999999\n");
  WriteFile(root / "regression" / "absurd_edge_count",
            "#scholarrank-graph-v1\n2 4611686018427387904\n2000\n2001\n");

  // And the binary shapes: truncation and a corrupt year payload.
  WriteFile(root / "regression" / "truncated_binary",
            binary_bytes.substr(0, binary_bytes.size() / 2));
  std::string bad_year = binary_bytes;
  const int32_t bogus = -123456;
  bad_year.replace(4 + 16, sizeof(bogus),
                   reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  WriteFile(root / "regression" / "bad_year_binary", bad_year);
}

void MakeGroundTruthCorpus(const std::filesystem::path& root) {
  std::stringstream labels;
  SCHOLAR_CHECK_OK(
      scholar::WriteGroundTruthLabels({0.5, 0.0, 3.25, 1.0}, &labels));
  WriteFile(root / "seed" / "tiny_labels", labels.str());
  WriteFile(root / "seed" / "sparse_labels",
            "#scholarrank-labels-v1\n# expert file\n4 2\n2 1.5\n0 0.5\n");

  WriteFile(root / "regression" / "duplicate_label",
            "#scholarrank-labels-v1\n3 2\n1 1.0\n1 2.0\n");
  WriteFile(root / "regression" / "out_of_range_id",
            "#scholarrank-labels-v1\n2 1\n4294967297 1.0\n");
  WriteFile(root / "regression" / "nan_impact",
            "#scholarrank-labels-v1\n3 1\n1 nan\n");
  WriteFile(root / "regression" / "absurd_article_count",
            "#scholarrank-labels-v1\n99999999999 0\n");
}

void MakeAMinerCorpus(const std::filesystem::path& root) {
  WriteFile(root / "seed" / "two_records",
            "#* Paper A\n#@ alice;bob\n#t 2000\n#c VLDB\n#index 10\n"
            "\n"
            "#* Paper B\n#@ carol\n#t 2001\n#c SIGMOD\n#index 11\n#% 10\n");
  WriteFile(root / "regression" / "dangling_reference",
            "#* Lonely\n#t 2003\n#index 5\n#% 99\n");
  WriteFile(root / "regression" / "duplicate_index",
            "#* A\n#t 2000\n#index 3\n\n#* B\n#t 2001\n#index 3\n");
  WriteFile(root / "regression" / "tags_without_record",
            "#% 1\n#t 2000\n#@ nobody\n");
}

void MakeSnapshotCorpus(const std::filesystem::path& root) {
  const CitationGraph graph = TinyGraph();
  RankingOutput ranking;
  ranking.scores = {0.30, 0.10, 0.25, 0.20, 0.15};
  ranking.ranks = scholar::ScoresToRanks(ranking.scores);
  ranking.percentiles = scholar::RankPercentiles(ranking.scores);
  scholar::serve::SnapshotMeta meta;
  meta.snapshot_id = 1;
  meta.created_unix = 1700000000;
  meta.ranker_name = "twpr";
  meta.corpus_name = "tiny";
  const scholar::serve::ScoreSnapshot snap =
      scholar::serve::ScoreSnapshot::Build(graph, ranking, std::move(meta))
          .value();
  std::ostringstream out(std::ios::binary);
  SCHOLAR_CHECK_OK(snap.WriteTo(&out));
  const std::string bytes = out.str();
  WriteFile(root / "seed" / "tiny_snapshot", bytes);

  WriteFile(root / "regression" / "truncated_header", bytes.substr(0, 10));
  WriteFile(root / "regression" / "truncated_payload",
            bytes.substr(0, bytes.size() - 7));
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteFile(root / "regression" / "bad_magic", bad_magic);
  std::string wrong_version = bytes;
  wrong_version[4] = 99;
  WriteFile(root / "regression" / "version_skew", wrong_version);
  std::string bit_flip = bytes;
  bit_flip[bit_flip.size() - 3] ^= 0x40;
  WriteFile(root / "regression" / "payload_bit_flip", bit_flip);
  // Inflate the first section header's payload_bytes: declared sections
  // must not be allowed to overflow the file size.
  std::string inflated = bytes;
  const uint64_t absurd = uint64_t{1} << 40;
  const size_t first_payload_bytes_offset = 40 + (4 + 4) + (4 + 4) + 4 + 4;
  inflated.replace(first_payload_bytes_offset, sizeof(absurd),
                   reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  WriteFile(root / "regression" / "inflated_section", inflated);
}

std::string EdgeBatchBytes(const scholar::stream::EdgeBatch& batch) {
  std::ostringstream out(std::ios::binary);
  SCHOLAR_CHECK_OK(scholar::stream::WriteEdgeBatch(batch, &out));
  return out.str();
}

/// Byte offsets inside one encoded batch: 28-byte header (magic, version,
/// sequence, counts), then years, then {src, dst} pairs, then the CRC.
constexpr size_t kBatchHeaderBytes = 28;

/// Re-stamps the trailing CRC after a payload byte patch, so regression
/// inputs exercise the *semantic* check they target instead of tripping
/// the checksum first.
void RestampCrc(std::string* bytes) {
  const size_t payload = bytes->size() - kBatchHeaderBytes - 4;
  const uint32_t crc =
      scholar::Crc32(bytes->data() + kBatchHeaderBytes, payload);
  bytes->replace(bytes->size() - 4, 4,
                 reinterpret_cast<const char*>(&crc), 4);
}

void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
  bytes->replace(offset, sizeof(value),
                 reinterpret_cast<const char*>(&value), sizeof(value));
}

void MakeEdgeBatchCorpus(const std::filesystem::path& root) {
  // Valid against the harness's 3-node base: batch 1 adds nodes 3..4,
  // batch 2 adds node 5. Concatenated, they seed the multi-batch path.
  scholar::stream::EdgeBatch b1;
  b1.sequence = 1;
  b1.node_years = {2005, 2005};
  b1.edges = {{3, 0}, {3, 2}, {4, 3}};
  scholar::stream::EdgeBatch b2;
  b2.sequence = 2;
  b2.node_years = {2006};
  b2.edges = {{5, 0}, {5, 4}};
  const std::string bytes1 = EdgeBatchBytes(b1);
  WriteFile(root / "seed" / "two_batches", bytes1 + EdgeBatchBytes(b2));
  scholar::stream::EdgeBatch heartbeat;
  heartbeat.sequence = 3;
  WriteFile(root / "seed" / "empty_batch", EdgeBatchBytes(heartbeat));
  // Out of order on purpose: the staging path is part of the surface.
  WriteFile(root / "seed" / "staged_batch", EdgeBatchBytes(b2));

  // Shapes the parser must keep rejecting. Offsets: years start at 28
  // (4 bytes each), edges follow (8 bytes each), CRC is the last 4.
  WriteFile(root / "regression" / "truncated_payload",
            bytes1.substr(0, bytes1.size() - 9));
  std::string bad_magic = bytes1;
  bad_magic[0] = 'X';
  WriteFile(root / "regression" / "bad_magic", bad_magic);
  std::string wrong_version = bytes1;
  PatchU32(&wrong_version, 4, 99);
  WriteFile(root / "regression" / "wrong_version", wrong_version);
  std::string crc_flip = bytes1;
  crc_flip[crc_flip.size() - 2] ^= 0x10;
  WriteFile(root / "regression" / "crc_flip", crc_flip);
  std::string absurd_edges = bytes1;
  PatchU32(&absurd_edges, 20, 0xFFFFFFFFu);  // low half of num_edges
  WriteFile(root / "regression" / "absurd_edge_count", absurd_edges);
  std::string bad_year = bytes1;
  PatchU32(&bad_year, kBatchHeaderBytes, 99999999u);
  RestampCrc(&bad_year);
  WriteFile(root / "regression" / "implausible_year", bad_year);
  std::string year_order = bytes1;
  PatchU32(&year_order, kBatchHeaderBytes + 4, 1999u);  // second year < first
  RestampCrc(&year_order);
  WriteFile(root / "regression" / "year_not_monotone", year_order);
  std::string self_loop = bytes1;
  PatchU32(&self_loop, kBatchHeaderBytes + 8 + 16, 3u);  // (4,3) -> (3,3)
  RestampCrc(&self_loop);
  WriteFile(root / "regression" / "self_loop", self_loop);
  std::string unsorted = bytes1;
  PatchU32(&unsorted, kBatchHeaderBytes + 8 + 8 + 4, 0u);  // (3,2) -> (3,0) dup
  RestampCrc(&unsorted);
  WriteFile(root / "regression" / "unsorted_edges", unsorted);
  std::string src_window = bytes1;
  PatchU32(&src_window, kBatchHeaderBytes + 8 + 16, 4000u);  // src far outside
  RestampCrc(&src_window);
  WriteFile(root / "regression" / "source_outside_window", src_window);
}

void MakeServeRequestCorpus(const std::filesystem::path& root) {
  WriteFile(root / "seed" / "command_mix",
            "ping\ninfo\ntop_k 3\ntop_k 2 1\nscore 0\nrank 4\n"
            "percentile 2\nneighbors 2 citers\nneighbors 2 refs 1\n");
  WriteFile(root / "seed" / "error_paths",
            "score banana\nrank 99\ntop_k 0\ntop_k -3\nneighbors 1 up\n"
            "reload /etc/passwd\nunknown_verb\n");
  // Pipelined batches: what the event loop actually receives from a deep
  // client pipeline — many requests in one recv, answered as one batch.
  WriteFile(root / "seed" / "pipelined_batch",
            "score 0\nscore 1\nscore 2\ntop_k 2\nrank 0\nping\n"
            "percentile 1\nneighbors 0 citers\nscore 3\ninfo\n");
  // Oversized pipeline of one-byte-ish requests: drives the per-drain
  // batch budget (max_batch_requests) and the BUSY shed path.
  std::string flood;
  for (int i = 0; i < 200; ++i) flood += "ping\n";
  WriteFile(root / "seed" / "pipelined_flood", flood);
  WriteFile(root / "regression" / "empty_lines", "\n\r\n\n");
  WriteFile(root / "regression" / "oversized_line",
            std::string(1000, 'a'));
  WriteFile(root / "regression" / "split_crlf", "ping\rping\r\nping\n\r");
  // Partial frames: a recv boundary can land anywhere, including between
  // the CR and LF of one terminator and mid-token. The framer must carry
  // the remainder, not answer or reject it early.
  WriteFile(root / "regression" / "partial_mid_token", "top_k 3\nsco");
  WriteFile(root / "regression" / "partial_mid_crlf", "score 1\r");
  WriteFile(root / "regression" / "pipelined_then_partial",
            "ping\r\nscore 0\nrank 2\ntop_k 5 1");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path root(argv[1]);
  MakeGraphIoCorpus(root / "graph_io");
  MakeGroundTruthCorpus(root / "ground_truth");
  MakeAMinerCorpus(root / "aminer");
  MakeSnapshotCorpus(root / "snapshot");
  MakeServeRequestCorpus(root / "serve_request");
  MakeEdgeBatchCorpus(root / "edge_batch");
  std::fprintf(stderr, "corpora written under %s\n", root.c_str());
  return 0;
}
