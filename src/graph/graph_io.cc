#include "graph/graph_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/graph_builder.h"
#include "util/byte_reader.h"
#include "util/string_util.h"

namespace scholar {
namespace {

constexpr char kTextSignature[] = "#scholarrank-graph-v1";
constexpr char kBinaryMagic[4] = {'S', 'R', 'G', '1'};

/// Publication-year plausibility window for untrusted graph files. Years
/// are either the kUnknownYear sentinel or non-negative; the upper bound
/// admits month-scaled encodings (graph/types.h) while rejecting the
/// garbage an int64->int32 cast of corrupt input would otherwise truncate
/// silently.
constexpr int64_t kMaxPlausibleYear = 1000000;

bool YearIsPlausible(int64_t year) {
  return year == static_cast<int64_t>(kUnknownYear) ||
         (year >= 0 && year <= kMaxPlausibleYear);
}

/// Reads the next content line (skipping blanks and comments) into *line,
/// tracking the 1-based source line number in *line_number for
/// diagnostics.
bool NextContentLine(std::istream* in, std::string* line,
                     size_t* line_number) {
  while (std::getline(*in, *line)) {
    ++*line_number;
    std::string_view trimmed = Trim(*line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    *line = std::string(trimmed);
    return true;
  }
  return false;
}

template <typename T>
void WriteRaw(std::ostream* out, const T& value) {
  out->write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void WriteRawVector(std::ostream* out, const std::vector<T>& v) {
  if (!v.empty()) {
    out->write(reinterpret_cast<const char*>(v.data()),
               static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

}  // namespace

Status WriteGraphText(const CitationGraph& graph, std::ostream* out) {
  *out << kTextSignature << "\n"
       << graph.num_nodes() << " " << graph.num_edges() << "\n";
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    *out << graph.year(u) << "\n";
  }
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.References(u)) {
      *out << u << " " << v << "\n";
    }
  }
  if (!*out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteGraphTextFile(const CitationGraph& graph,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  SCHOLAR_RETURN_NOT_OK(WriteGraphText(graph, &out));
  out.close();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<CitationGraph> ReadGraphText(std::istream* in) {
  constexpr char kWhat[] = "graph text";
  std::string line;
  size_t line_number = 0;
  if (!std::getline(*in, line) || Trim(line) != kTextSignature) {
    return ParseError(kWhat, 1,
                      "missing signature line '" +
                          std::string(kTextSignature) + "'");
  }
  line_number = 1;
  if (!NextContentLine(in, &line, &line_number)) {
    return ParseError(kWhat, line_number + 1, "missing node/edge count line");
  }
  auto counts = SplitSkipEmpty(line, ' ');
  if (counts.size() != 2) {
    return ParseError(kWhat, line_number, "bad count line: '" + line + "'");
  }
  SCHOLAR_ASSIGN_OR_RETURN(int64_t n, ParseInt64(counts[0]));
  SCHOLAR_ASSIGN_OR_RETURN(int64_t m, ParseInt64(counts[1]));
  if (n < 0 || m < 0) return ParseError(kWhat, line_number, "negative counts");

  GraphBuilder builder(GraphBuilder::Options{
      .dedup_parallel_edges = false, .drop_self_loops = false});
  for (int64_t i = 0; i < n; ++i) {
    if (!NextContentLine(in, &line, &line_number)) {
      return ParseError(kWhat, line_number,
                        "truncated year section at node " + std::to_string(i));
    }
    SCHOLAR_ASSIGN_OR_RETURN(int64_t year, ParseInt64(line));
    if (!YearIsPlausible(year)) {
      return ParseError(kWhat, line_number,
                        "implausible year " + std::to_string(year) +
                            " for node " + std::to_string(i) +
                            " (want " + std::to_string(kUnknownYear) +
                            " or 0.." + std::to_string(kMaxPlausibleYear) +
                            ")");
    }
    builder.AddNode(static_cast<Year>(year));
  }
  // Dense (src<<32|dst) edge keys; NodeId is uint32 so the pack is exact.
  // The reserve is clamped: `m` is attacker-declared, and an absurd count
  // must fail later as a truncation error, not throw bad_alloc here.
  std::unordered_set<uint64_t> seen_edges;
  seen_edges.reserve(static_cast<size_t>(std::min<int64_t>(m, 1 << 20)));
  for (int64_t e = 0; e < m; ++e) {
    if (!NextContentLine(in, &line, &line_number)) {
      return ParseError(kWhat, line_number,
                        "truncated edge section at edge " + std::to_string(e));
    }
    auto fields = SplitSkipEmpty(line, ' ');
    if (fields.size() != 2) {
      return ParseError(kWhat, line_number, "bad edge line: '" + line + "'");
    }
    SCHOLAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(fields[0]));
    SCHOLAR_ASSIGN_OR_RETURN(int64_t v, ParseInt64(fields[1]));
    // Range-check as int64 before any narrowing: a 2^32+k id must fail
    // loudly, not wrap around to node k.
    if (u < 0 || v < 0 || u >= n || v >= n) {
      return ParseError(kWhat, line_number,
                        "edge endpoint out of range: '" + line + "' (graph has " +
                            std::to_string(n) + " nodes)");
    }
    if (u == v) {
      return ParseError(kWhat, line_number,
                        "self-loop citation at node " + std::to_string(u));
    }
    const uint64_t key =
        (static_cast<uint64_t>(u) << 32) | static_cast<uint64_t>(v);
    if (!seen_edges.insert(key).second) {
      return ParseError(kWhat, line_number,
                        "duplicate edge " + std::to_string(u) + " -> " +
                            std::to_string(v));
    }
    SCHOLAR_RETURN_NOT_OK(builder.AddEdge(static_cast<NodeId>(u),
                                          static_cast<NodeId>(v)));
  }
  return std::move(builder).Build();
}

Result<CitationGraph> ReadGraphTextFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  return ReadGraphText(&in);
}

Status WriteGraphBinary(const CitationGraph& graph, std::ostream* out) {
  out->write(kBinaryMagic, sizeof(kBinaryMagic));
  uint64_t n = graph.num_nodes();
  uint64_t m = graph.num_edges();
  WriteRaw(out, n);
  WriteRaw(out, m);
  WriteRawVector(out, graph.years());
  WriteRawVector(out, graph.out_offsets());
  WriteRawVector(out, graph.out_neighbors());
  if (!*out) return Status::IOError("binary write failed");
  return Status::OK();
}

Status WriteGraphBinaryFile(const CitationGraph& graph,
                            const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  SCHOLAR_RETURN_NOT_OK(WriteGraphBinary(graph, &out));
  out.close();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<CitationGraph> ReadGraphBinary(std::istream* in) {
  ByteReader reader(in);
  char magic[4];
  if (!reader.ReadRaw(&magic) ||
      !std::equal(magic, magic + sizeof(magic), kBinaryMagic)) {
    return Status::Corruption("bad binary graph magic");
  }
  uint64_t n = 0, m = 0;
  if (!reader.ReadRaw(&n) || !reader.ReadRaw(&m)) {
    return Status::Corruption("truncated binary header");
  }
  // Plausibility bound (2^38 elements ≈ 1 TiB of payload) so that a
  // corrupted header cannot drive unbounded allocation.
  constexpr uint64_t kMaxElements = uint64_t{1} << 38;
  if (n > kMaxElements || m > kMaxElements) {
    return Status::Corruption("implausible binary header counts");
  }
  std::vector<Year> years;
  std::vector<EdgeId> offsets;
  std::vector<NodeId> neighbors;
  SCHOLAR_RETURN_NOT_OK(reader.ReadVector(n, "binary year section", &years));
  SCHOLAR_RETURN_NOT_OK(
      reader.ReadVector(n + 1, "binary offset section", &offsets));
  SCHOLAR_RETURN_NOT_OK(
      reader.ReadVector(m, "binary neighbor section", &neighbors));
  for (size_t i = 0; i < years.size(); ++i) {
    if (!YearIsPlausible(years[i])) {
      return Status::Corruption("implausible year " +
                                std::to_string(years[i]) + " for node " +
                                std::to_string(i));
    }
  }
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != m) {
    return Status::Corruption("inconsistent binary offsets");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::Corruption("non-monotone binary offsets");
    }
  }
  for (NodeId v : neighbors) {
    if (v >= n) return Status::Corruption("binary neighbor id out of range");
  }
  return CitationGraph::FromCsr(std::move(years), std::move(offsets),
                                std::move(neighbors));
}

Result<CitationGraph> ReadGraphBinaryFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  return ReadGraphBinary(&in);
}

}  // namespace scholar
