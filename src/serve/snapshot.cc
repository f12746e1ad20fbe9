#include "serve/snapshot.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "util/byte_reader.h"
#include "util/crc32.h"

namespace scholar {
namespace serve {
namespace {

constexpr char kMagic[4] = {'S', 'R', 'S', 'S'};
constexpr uint32_t kVersion = 1;

/// Section tags, in file order. The reader requires exactly this set.
enum SectionTag : uint32_t {
  kYears = 1,
  kScores = 2,
  kRanks = 3,
  kPercentiles = 4,
  kOrder = 5,
  kInOffsets = 6,
  kInNeighbors = 7,
  kOutOffsets = 8,
  kOutNeighbors = 9,
};

struct SectionHeader {
  uint32_t tag = 0;
  uint64_t payload_bytes = 0;
  uint32_t crc32 = 0;
};

/// Metadata strings are names; a corrupt length should not drive a giant
/// allocation.
constexpr uint32_t kMaxMetaStringBytes = 1u << 20;

template <typename T>
void WriteRaw(std::ostream* out, const T& value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

Status WriteString(std::ostream* out, const std::string& s) {
  if (s.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("snapshot metadata string too long");
  }
  WriteRaw(out, static_cast<uint32_t>(s.size()));
  out->write(s.data(), static_cast<std::streamsize>(s.size()));
  return Status::OK();
}

template <typename T>
SectionHeader MakeSection(SectionTag tag, const std::vector<T>& v) {
  SectionHeader h;
  h.tag = tag;
  h.payload_bytes = v.size() * sizeof(T);
  h.crc32 = Crc32(v.data(), h.payload_bytes);
  return h;
}

template <typename T>
void WritePayload(std::ostream* out, const std::vector<T>& v) {
  if (!v.empty()) {
    out->write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

/// Reads one section's payload into `v`, verifying the element-size match
/// against the header's expected count and the checksum. All raw byte
/// movement goes through the bounds-checked ByteReader (the unchecked-read
/// contract).
template <typename T>
Status ReadPayload(ByteReader* reader, const SectionHeader& header,
                   size_t expected_count, std::vector<T>* v) {
  if (header.payload_bytes != expected_count * sizeof(T)) {
    return Status::Corruption(
        "section " + std::to_string(header.tag) + " has " +
        std::to_string(header.payload_bytes) + " bytes, expected " +
        std::to_string(expected_count * sizeof(T)));
  }
  SCHOLAR_RETURN_NOT_OK(reader->ReadVector(
      expected_count,
      ("snapshot section " + std::to_string(header.tag)).c_str(), v));
  const uint32_t crc = Crc32(v->data(), v->size() * sizeof(T));
  if (crc != header.crc32) {
    return Status::Corruption("checksum mismatch in section " +
                              std::to_string(header.tag));
  }
  return Status::OK();
}

Status ValidateOffsets(const std::vector<uint64_t>& offsets, size_t n,
                       size_t m, const char* which) {
  if (offsets.size() != n + 1 || offsets.front() != 0 || offsets.back() != m) {
    return Status::Corruption(std::string("inconsistent ") + which +
                              " offsets");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Corruption(std::string("non-monotone ") + which +
                                " offsets");
    }
  }
  return Status::OK();
}

Status ValidateNeighbors(const std::vector<NodeId>& neighbors, size_t n,
                         const char* which) {
  for (NodeId v : neighbors) {
    if (v >= n) {
      return Status::Corruption(std::string(which) +
                                " neighbor id out of range");
    }
  }
  return Status::OK();
}

}  // namespace

Result<ScoreSnapshot> ScoreSnapshot::Build(const CitationGraph& graph,
                                           const RankingOutput& ranking,
                                           SnapshotMeta meta) {
  const size_t n = graph.num_nodes();
  if (ranking.scores.size() != n || ranking.ranks.size() != n ||
      ranking.percentiles.size() != n) {
    return Status::InvalidArgument(
        "ranking shape (" + std::to_string(ranking.scores.size()) +
        " scores) does not match graph (" + std::to_string(n) + " nodes)");
  }
  ScoreSnapshot snap;
  snap.meta_ = std::move(meta);
  snap.years_ = graph.years();
  snap.scores_ = ranking.scores;
  snap.ranks_ = ranking.ranks;
  snap.percentiles_ = ranking.percentiles;
  snap.order_ = ranking.Descending();
  snap.in_offsets_ = graph.in_offsets();
  snap.in_neighbors_ = graph.in_neighbors();
  snap.out_offsets_ = graph.out_offsets();
  snap.out_neighbors_ = graph.out_neighbors();
  return snap;
}

std::span<const NodeId> ScoreSnapshot::Top(size_t k) const {
  return TopPage(0, k);
}

std::span<const NodeId> ScoreSnapshot::TopPage(size_t offset,
                                               size_t k) const {
  if (offset >= order_.size()) return {};
  return {order_.data() + offset, std::min(k, order_.size() - offset)};
}

Status ScoreSnapshot::WriteTo(std::ostream* out) const {
  out->write(kMagic, sizeof(kMagic));
  WriteRaw(out, kVersion);
  WriteRaw(out, static_cast<uint64_t>(num_nodes()));
  WriteRaw(out, static_cast<uint64_t>(num_edges()));
  WriteRaw(out, meta_.snapshot_id);
  WriteRaw(out, meta_.created_unix);
  SCHOLAR_RETURN_NOT_OK(WriteString(out, meta_.ranker_name));
  SCHOLAR_RETURN_NOT_OK(WriteString(out, meta_.corpus_name));

  const SectionHeader sections[] = {
      MakeSection(kYears, years_),
      MakeSection(kScores, scores_),
      MakeSection(kRanks, ranks_),
      MakeSection(kPercentiles, percentiles_),
      MakeSection(kOrder, order_),
      MakeSection(kInOffsets, in_offsets_),
      MakeSection(kInNeighbors, in_neighbors_),
      MakeSection(kOutOffsets, out_offsets_),
      MakeSection(kOutNeighbors, out_neighbors_),
  };
  WriteRaw(out, static_cast<uint32_t>(std::size(sections)));
  for (const SectionHeader& h : sections) {
    WriteRaw(out, h.tag);
    WriteRaw(out, h.payload_bytes);
    WriteRaw(out, h.crc32);
  }
  WritePayload(out, years_);
  WritePayload(out, scores_);
  WritePayload(out, ranks_);
  WritePayload(out, percentiles_);
  WritePayload(out, order_);
  WritePayload(out, in_offsets_);
  WritePayload(out, in_neighbors_);
  WritePayload(out, out_offsets_);
  WritePayload(out, out_neighbors_);
  if (!*out) return Status::IOError("snapshot write failed");
  return Status::OK();
}

Status ScoreSnapshot::WriteToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  SCHOLAR_RETURN_NOT_OK(WriteTo(&out));
  out.close();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<ScoreSnapshot> ScoreSnapshot::Read(std::istream* in) {
  ByteReader reader(in);
  char magic[4];
  if (!reader.ReadRaw(&magic) ||
      !std::equal(magic, magic + sizeof(magic), kMagic)) {
    return Status::Corruption("bad snapshot magic (not a snapshot file?)");
  }
  uint32_t version = 0;
  if (!reader.ReadRaw(&version)) {
    return Status::Corruption("truncated snapshot header");
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version) + " (reader supports " +
                              std::to_string(kVersion) + ")");
  }
  uint64_t n = 0, m = 0;
  ScoreSnapshot snap;
  if (!reader.ReadRaw(&n) || !reader.ReadRaw(&m) ||
      !reader.ReadRaw(&snap.meta_.snapshot_id) ||
      !reader.ReadRaw(&snap.meta_.created_unix)) {
    return Status::Corruption("truncated snapshot header");
  }
  // Plausibility bound (2^38 elements ≈ 2 TiB of scores) so a corrupted
  // header cannot drive unbounded allocation.
  constexpr uint64_t kMaxElements = uint64_t{1} << 38;
  if (n > kMaxElements || m > kMaxElements) {
    return Status::Corruption("implausible snapshot header counts");
  }
  SCHOLAR_ASSIGN_OR_RETURN(
      snap.meta_.ranker_name,
      reader.ReadLengthPrefixedString("ranker name", kMaxMetaStringBytes));
  SCHOLAR_ASSIGN_OR_RETURN(
      snap.meta_.corpus_name,
      reader.ReadLengthPrefixedString("corpus name", kMaxMetaStringBytes));

  uint32_t num_sections = 0;
  if (!reader.ReadRaw(&num_sections)) {
    return Status::Corruption("truncated section table");
  }
  constexpr uint32_t kExpectedSections = 9;
  if (num_sections != kExpectedSections) {
    return Status::Corruption("snapshot has " + std::to_string(num_sections) +
                              " sections, expected " +
                              std::to_string(kExpectedSections));
  }
  SectionHeader headers[kExpectedSections];
  uint64_t declared_payload_bytes = 0;
  for (SectionHeader& h : headers) {
    if (!reader.ReadRaw(&h.tag) || !reader.ReadRaw(&h.payload_bytes) ||
        !reader.ReadRaw(&h.crc32)) {
      return Status::Corruption("truncated section table");
    }
    declared_payload_bytes += h.payload_bytes;
  }
  constexpr SectionTag kExpectedOrder[kExpectedSections] = {
      kYears,     kScores,      kRanks,      kPercentiles,  kOrder,
      kInOffsets, kInNeighbors, kOutOffsets, kOutNeighbors,
  };
  for (uint32_t i = 0; i < kExpectedSections; ++i) {
    if (headers[i].tag != kExpectedOrder[i]) {
      return Status::Corruption("unexpected section tag " +
                                std::to_string(headers[i].tag) +
                                " at position " + std::to_string(i));
    }
  }
  // When the stream is seekable (files, string buffers), reject a section
  // table whose declared payload cannot fit in the remaining bytes before
  // touching any payload — the typed error for "declared count overflows
  // the file size". Pipes fall through to the per-section truncation
  // checks, which catch the same corruption one section later.
  if (std::optional<uint64_t> remaining = reader.RemainingBytes()) {
    if (declared_payload_bytes > *remaining) {
      return Status::Corruption(
          "section table declares " + std::to_string(declared_payload_bytes) +
          " payload bytes but only " + std::to_string(*remaining) +
          " remain in the file");
    }
  }
  const size_t nn = static_cast<size_t>(n);
  const size_t mm = static_cast<size_t>(m);
  SCHOLAR_RETURN_NOT_OK(ReadPayload(&reader, headers[0], nn, &snap.years_));
  SCHOLAR_RETURN_NOT_OK(ReadPayload(&reader, headers[1], nn, &snap.scores_));
  SCHOLAR_RETURN_NOT_OK(ReadPayload(&reader, headers[2], nn, &snap.ranks_));
  SCHOLAR_RETURN_NOT_OK(
      ReadPayload(&reader, headers[3], nn, &snap.percentiles_));
  SCHOLAR_RETURN_NOT_OK(ReadPayload(&reader, headers[4], nn, &snap.order_));
  SCHOLAR_RETURN_NOT_OK(
      ReadPayload(&reader, headers[5], nn + 1, &snap.in_offsets_));
  SCHOLAR_RETURN_NOT_OK(
      ReadPayload(&reader, headers[6], mm, &snap.in_neighbors_));
  SCHOLAR_RETURN_NOT_OK(
      ReadPayload(&reader, headers[7], nn + 1, &snap.out_offsets_));
  SCHOLAR_RETURN_NOT_OK(
      ReadPayload(&reader, headers[8], mm, &snap.out_neighbors_));

  // Structural invariants beyond checksums: the top-k index must be a
  // permutation of the node ids, and both adjacencies must be well formed.
  std::vector<bool> seen(nn, false);
  for (NodeId id : snap.order_) {
    if (id >= nn || seen[id]) {
      return Status::Corruption("top-k order is not a permutation");
    }
    seen[id] = true;
  }
  SCHOLAR_RETURN_NOT_OK(ValidateOffsets(snap.in_offsets_, nn, mm, "in"));
  SCHOLAR_RETURN_NOT_OK(ValidateOffsets(snap.out_offsets_, nn, mm, "out"));
  SCHOLAR_RETURN_NOT_OK(ValidateNeighbors(snap.in_neighbors_, nn, "in"));
  SCHOLAR_RETURN_NOT_OK(ValidateNeighbors(snap.out_neighbors_, nn, "out"));
  return snap;
}

Result<ScoreSnapshot> ScoreSnapshot::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  return Read(&in);
}

}  // namespace serve
}  // namespace scholar
