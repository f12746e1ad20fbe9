#include "data/dataset.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace scholar {

Status Corpus::ConsistencyCheck() const {
  const size_t n = graph.num_nodes();
  auto check_size = [n](size_t got, const char* field) -> Status {
    if (got != 0 && got != n) {
      return Status::Corruption(std::string(field) + " has " +
                                std::to_string(got) + " entries, graph has " +
                                std::to_string(n) + " nodes");
    }
    return Status::OK();
  };
  SCHOLAR_RETURN_NOT_OK(check_size(external_ids.size(), "external_ids"));
  SCHOLAR_RETURN_NOT_OK(check_size(venues.size(), "venues"));
  SCHOLAR_RETURN_NOT_OK(check_size(titles.size(), "titles"));
  SCHOLAR_RETURN_NOT_OK(check_size(true_impact.size(), "true_impact"));
  if (authors.num_papers() != 0 && authors.num_papers() != n) {
    return Status::Corruption("authors map covers " +
                              std::to_string(authors.num_papers()) +
                              " papers, graph has " + std::to_string(n));
  }
  for (int32_t v : venues) {
    if (v < -1 || v >= static_cast<int32_t>(venue_names.size())) {
      return Status::Corruption("venue index " + std::to_string(v) +
                                " out of range");
    }
  }
  return Status::OK();
}

namespace {

/// The C-locale isspace set that Trim strips: ' ', \t, \n, \v, \f, \r.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Trim without the per-character locale lookup.
inline std::string_view TrimSpace(std::string_view s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && IsSpace(s[begin])) ++begin;
  while (end > begin && IsSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

/// ParseInt64 in place: true with *value set for exactly the fields
/// ParseInt64 accepts. On false the caller returns ParseInt64's Status.
inline bool TryParseInt64(std::string_view field, int64_t* value) {
  const std::string_view s = TrimSpace(field);
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *value);
  return !s.empty() && ec == std::errc() && ptr == s.data() + s.size();
}

/// Returns a container's memory now rather than at scope exit.
template <typename T>
void Release(T* container) {
  T().swap(*container);
}

/// The numeric tag that starts the line at `p`: 'i' ("#index"), 't' or
/// '%', with *field just past it; 0 for any other line.
inline char NumericTag(const char* p, const char* end, const char** field) {
  if (end - p < 2 || p[0] != '#') return 0;
  if (p[1] == '%' || p[1] == 't') {
    *field = p + 2;
    return p[1];
  }
  if (p[1] == 'i' && StartsWith(std::string_view(p, end - p), "#index")) {
    *field = p + 6;
    return 'i';
  }
  return 0;
}

/// Parses the rest of a numeric line when it is spaces, then 1 to 18
/// digits, then '\n' or the end of the text: nearly every numeric line of
/// an AMiner dump, read here without the general path's line search, trim
/// and from_chars. Returns the start of the next line, or nullptr for any
/// other shape, which the general path then parses.
inline const char* ScanPlainNumber(const char* p, const char* end,
                                   int64_t* number) {
  while (p != end && *p == ' ') ++p;
  const char* const digits = p;
  int64_t value = 0;
  while (p != end && p - digits < 18 && *p >= '0' && *p <= '9') {
    value = value * 10 + (*p++ - '0');
  }
  if (p == digits || (p != end && *p != '\n')) return nullptr;
  *number = value;
  return p == end ? end : p + 1;
}

/// What one pass over AMiner text yields, per record in file order. Names
/// and titles are views into the text; references are still raw #index
/// values.
struct AMinerScan {
  std::vector<Year> years;  // kUnknownYear when the record has no #t
  std::vector<int64_t> indices;
  std::vector<std::string_view> titles;
  std::vector<std::string_view> venues;  // empty when the record has no #c
  std::vector<uint64_t> author_offsets{0};  // CSR rows into author_names
  std::vector<std::string_view> author_names;
  std::vector<uint64_t> ref_offsets{0};  // CSR rows into refs
  std::vector<int64_t> refs;
};

/// The record being scanned. Its authors and references are already the
/// open tail rows of the scan's flat arrays.
struct OpenRecord {
  std::string_view title;
  std::string_view venue;
  Year year = kUnknownYear;
  int64_t index = -1;  // negative: the record has no #index
  bool has_any_field = false;
};

Status CloseRecord(OpenRecord* rec, AMinerScan* scan) {
  if (!rec->has_any_field) return Status::OK();
  if (rec->index < 0) {
    return Status::Corruption("AMiner record without #index (title: '" +
                              std::string(rec->title) + "')");
  }
  scan->years.push_back(rec->year);
  scan->indices.push_back(rec->index);
  scan->titles.push_back(rec->title);
  scan->venues.push_back(rec->venue);
  scan->author_offsets.push_back(scan->author_names.size());
  scan->ref_offsets.push_back(scan->refs.size());
  *rec = OpenRecord();
  return Status::OK();
}

/// Applies the value of an "#index", "#t" or "#%" line to the open record.
Status ApplyNumber(char tag, int64_t number, OpenRecord* rec,
                   AMinerScan* scan) {
  if (tag == 'i') {
    // A new #index while the current record already has one starts a new
    // record even without a separating blank line.
    if (rec->index >= 0) SCHOLAR_RETURN_NOT_OK(CloseRecord(rec, scan));
    rec->index = number;
  } else if (tag == 't') {
    rec->year = static_cast<Year>(number);
  } else {
    scan->refs.push_back(number);
  }
  rec->has_any_field = true;
  return Status::OK();
}

/// One pass over the lines of `text`. Fails on the first malformed line or
/// record, in file order.
Status ScanAMiner(std::string_view text, AMinerScan* scan) {
  OpenRecord rec;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    int64_t number = 0;
    const char* field = nullptr;
    const char tag = NumericTag(p, end, &field);
    if (tag != 0) {
      if (const char* next = ScanPlainNumber(field, end, &number)) {
        SCHOLAR_RETURN_NOT_OK(ApplyNumber(tag, number, &rec, scan));
        p = next;
        continue;
      }
    }
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* line_end = nl != nullptr ? nl : end;
    const std::string_view line =
        TrimSpace(std::string_view(p, static_cast<size_t>(line_end - p)));
    p = nl != nullptr ? nl + 1 : end;
    if (line.empty()) {
      SCHOLAR_RETURN_NOT_OK(CloseRecord(&rec, scan));
      continue;
    }
    if (line.size() < 2 || line[0] != '#') continue;
    const std::string_view value = line.substr(2);
    switch (line[1]) {
      case 'i':
        if (!StartsWith(line, "#index")) break;
        if (!TryParseInt64(line.substr(6), &number)) {
          return ParseInt64(line.substr(6)).status();
        }
        SCHOLAR_RETURN_NOT_OK(ApplyNumber('i', number, &rec, scan));
        break;
      case 't':
      case '%':
        if (!TryParseInt64(value, &number)) return ParseInt64(value).status();
        SCHOLAR_RETURN_NOT_OK(ApplyNumber(line[1], number, &rec, scan));
        break;
      case '*':
        rec.title = TrimSpace(value);
        rec.has_any_field = true;
        break;
      case '@':
        for (std::string_view rest = value;;) {
          const size_t semi = rest.find(';');
          const std::string_view author = TrimSpace(rest.substr(0, semi));
          if (!author.empty()) scan->author_names.push_back(author);
          if (semi == std::string_view::npos) break;
          rest.remove_prefix(semi + 1);
        }
        rec.has_any_field = true;
        break;
      case 'c':
        rec.venue = TrimSpace(value);
        rec.has_any_field = true;
        break;
      default:
        break;  // Unknown tags (#!, abstract, ...) are ignored.
    }
  }
  return CloseRecord(&rec, scan);
}

/// Author and venue names, interned in one open-addressing table. Each kind
/// numbers its names 0, 1, ... in order of first appearance. Keys are views
/// into the text, so the table must not outlive it.
class NameTable {
 public:
  enum Kind : uint32_t { kAuthor = 0, kVenue = 1 };

  /// Sized for `occurrences` names to intern, assuming a name repeats about
  /// four times; the table doubles whenever it passes a load factor of 1/2.
  explicit NameTable(size_t occurrences)
      : slots_(std::bit_ceil(occurrences / 2 + 16)) {}

  /// Id of `name` within `kind`; a new name gets the kind's next id.
  uint32_t Intern(Kind kind, std::string_view name) {
    const uint64_t hash = Hash(name);
    // The low bits pick the slot; the high bits, tagged with the kind, let
    // most mismatches skip the string compare.
    const uint32_t tag = (static_cast<uint32_t>(hash >> 32) & ~1u) | kind;
    std::vector<std::string_view>& names = names_[kind];
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) {
        names.push_back(name);
        slot = {tag, static_cast<uint32_t>(names.size())};
        if (2 * (names_[0].size() + names_[1].size()) > slots_.size()) Grow();
        return static_cast<uint32_t>(names.size() - 1);
      }
      if (slot.tag == tag && names[slot.id_plus_one - 1] == name) {
        return slot.id_plus_one - 1;
      }
    }
  }

  /// Names of `kind`, indexed by id.
  const std::vector<std::string_view>& names(Kind kind) const {
    return names_[kind];
  }

 private:
  struct Slot {
    uint32_t tag = 0;  // bit 0: the Kind
    uint32_t id_plus_one = 0;  // 0: empty
  };

  static uint64_t Hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id_plus_one == 0) continue;
      const std::string_view name = names_[slot.tag & 1][slot.id_plus_one - 1];
      size_t i = Hash(name) & mask;
      while (slots_[i].id_plus_one != 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::string_view> names_[2];
};

/// External #index -> dense id: open addressing sized from the record
/// count, at a load factor of at most 1/2. Lookups take any int64: sparse,
/// huge and negative keys included.
class IndexTable {
 public:
  /// Maps indices[i] to i; Corruption on the first index that repeats, in
  /// record order.
  static Result<IndexTable> Create(const std::vector<int64_t>& indices) {
    IndexTable table;
    table.slots_.resize(std::bit_ceil(2 * indices.size()));
    table.shift_ = 64 - std::countr_zero(table.slots_.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      if (!table.Insert(indices[i], static_cast<NodeId>(i))) {
        return Status::Corruption("duplicate #index " +
                                  std::to_string(indices[i]));
      }
    }
    return table;
  }

  /// Dense id of `key`, or kInvalidNode.
  NodeId Find(int64_t key) const {
    for (size_t i = Home(key);; i = Next(i)) {
      const Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) return kInvalidNode;
      if (slot.key == key) return slot.id_plus_one - 1;
    }
  }

 private:
  struct Slot {
    int64_t key = 0;
    NodeId id_plus_one = 0;  // 0: empty
  };

  bool Insert(int64_t key, NodeId id) {
    for (size_t i = Home(key);; i = Next(i)) {
      Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) {
        slot = {key, id + 1};
        return true;
      }
      if (slot.key == key) return false;
    }
  }
  size_t Home(int64_t key) const {
    return (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_;
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  std::vector<Slot> slots_;
  int shift_ = 0;  // 64 - log2(slots_.size())
};

/// Reads `in` to EOF in fixed-size blocks into one buffer, presized to
/// `size_hint` bytes (0: unknown). Never seeks, so pipes work too.
Result<std::string> ReadBlocks(std::istream* in, size_t size_hint,
                               const std::string& what) {
  constexpr size_t kBlock = size_t{1} << 20;
  std::string text(size_hint + kBlock, '\0');
  size_t size = 0;
  while (true) {
    if (text.size() - size < kBlock) {
      text.resize(std::max(2 * text.size(), size + kBlock));
    }
    in->read(text.data() + size, static_cast<std::streamsize>(kBlock));
    size += static_cast<size_t>(in->gcount());
    if (!*in) break;
  }
  if (in->bad()) return Status::IOError("read failed: " + what);
  text.resize(size);
  return text;
}

/// The AMiner parser behind both entry points. Frees `text` as soon as
/// every name in it is interned.
Result<Corpus> ParseAMiner(std::string text, const std::string& name) {
  AMinerScan scan;
  SCHOLAR_RETURN_NOT_OK(ScanAMiner(text, &scan));
  const size_t n = scan.indices.size();
  if (n == 0) return Status::Corruption("no AMiner records found");

  SCHOLAR_ASSIGN_OR_RETURN(const IndexTable dense,
                           IndexTable::Create(scan.indices));

  Corpus corpus;
  corpus.name = name;
  std::vector<AuthorId> author_ids(scan.author_names.size());
  {
    NameTable table(scan.author_names.size() + n);
    for (size_t k = 0; k < author_ids.size(); ++k) {
      author_ids[k] = table.Intern(NameTable::kAuthor, scan.author_names[k]);
    }
    corpus.venues.resize(n, -1);
    for (size_t i = 0; i < n; ++i) {
      if (scan.venues[i].empty()) continue;
      corpus.venues[i] = static_cast<int32_t>(
          table.Intern(NameTable::kVenue, scan.venues[i]));
    }
    for (std::string_view venue : table.names(NameTable::kVenue)) {
      corpus.venue_names.emplace_back(venue);
    }
  }
  corpus.titles.reserve(n);
  for (std::string_view title : scan.titles) corpus.titles.emplace_back(title);
  Release(&scan.titles);
  Release(&scan.author_names);
  Release(&scan.venues);
  Release(&text);

  // Year fallback: records without #t get the corpus minimum year.
  Year min_year = std::numeric_limits<Year>::max();
  bool any_year = false;
  for (Year y : scan.years) {
    if (y != kUnknownYear) {
      min_year = std::min(min_year, y);
      any_year = true;
    }
  }
  if (!any_year) min_year = 0;

  GraphBuilder builder;
  for (Year y : scan.years) builder.AddNode(y == kUnknownYear ? min_year : y);
  builder.ReserveEdges(scan.refs.size());
  size_t dropped_refs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (uint64_t r = scan.ref_offsets[i]; r < scan.ref_offsets[i + 1]; ++r) {
      const NodeId cited = dense.Find(scan.refs[r]);
      if (cited == kInvalidNode) {
        ++dropped_refs;
        continue;
      }
      SCHOLAR_RETURN_NOT_OK(builder.AddEdge(static_cast<NodeId>(i), cited));
    }
  }
  if (dropped_refs > 0) {
    SCHOLAR_LOG(kWarning) << "dropped " << dropped_refs
                          << " references to articles outside the file";
  }
  Release(&scan.refs);
  SCHOLAR_ASSIGN_OR_RETURN(corpus.graph, std::move(builder).Build());
  corpus.external_ids.assign(scan.indices.begin(), scan.indices.end());
  corpus.authors = PaperAuthors(std::move(scan.author_offsets),
                                std::move(author_ids));
  SCHOLAR_RETURN_NOT_OK(corpus.ConsistencyCheck());
  return corpus;
}

}  // namespace

Result<Corpus> ReadAMinerCorpus(std::istream* in, const std::string& name) {
  SCHOLAR_ASSIGN_OR_RETURN(std::string text, ReadBlocks(in, 0, name));
  return ParseAMiner(std::move(text), name);
}

Result<Corpus> ReadAMinerCorpusFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open: " + path);
  // A size hint only: pipes and devices report none and are read the same.
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  SCHOLAR_ASSIGN_OR_RETURN(
      std::string text,
      ReadBlocks(&in, ec ? 0 : static_cast<size_t>(size), path));
  return ParseAMiner(std::move(text), path);
}

Status WriteAMinerCorpus(const Corpus& corpus, std::ostream* out) {
  SCHOLAR_RETURN_NOT_OK(corpus.ConsistencyCheck());
  // Author names are not stored in Corpus; synthesize stable names from
  // author ids so the format round-trips structurally.
  for (NodeId i = 0; i < corpus.graph.num_nodes(); ++i) {
    if (!corpus.titles.empty() && !corpus.titles[i].empty()) {
      *out << "#* " << corpus.titles[i] << "\n";
    }
    if (corpus.has_authors()) {
      auto span = corpus.authors.AuthorsOf(i);
      if (!span.empty()) {
        *out << "#@ ";
        for (size_t a = 0; a < span.size(); ++a) {
          if (a > 0) *out << ";";
          *out << "author_" << span[a];
        }
        *out << "\n";
      }
    }
    *out << "#t " << corpus.graph.year(i) << "\n";
    if (!corpus.venues.empty() && corpus.venues[i] >= 0) {
      *out << "#c " << corpus.venue_names[corpus.venues[i]] << "\n";
    }
    uint64_t ext = corpus.external_ids.empty() ? i : corpus.external_ids[i];
    *out << "#index " << ext << "\n";
    for (NodeId ref : corpus.graph.References(i)) {
      uint64_t ref_ext =
          corpus.external_ids.empty() ? ref : corpus.external_ids[ref];
      *out << "#% " << ref_ext << "\n";
    }
    *out << "\n";
  }
  if (!*out) return Status::IOError("AMiner write failed");
  return Status::OK();
}

Status WriteAMinerCorpusFile(const Corpus& corpus, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  SCHOLAR_RETURN_NOT_OK(WriteAMinerCorpus(corpus, &out));
  out.close();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Result<Corpus> ReadTsvCorpus(std::istream* articles, std::istream* citations,
                             const std::string& name) {
  struct Row {
    Year year;
    std::string venue;
    std::vector<std::string> author_names;
  };
  std::map<int64_t, Row> rows;
  std::string line;
  while (std::getline(*articles, line)) {
    if (Trim(line).empty() || line[0] == '#') continue;
    auto fields = Split(line, '\t');
    if (fields.size() < 2) {
      return Status::Corruption("articles.tsv row needs >=2 fields: '" +
                                line + "'");
    }
    SCHOLAR_ASSIGN_OR_RETURN(int64_t id, ParseInt64(fields[0]));
    SCHOLAR_ASSIGN_OR_RETURN(int64_t year, ParseInt64(fields[1]));
    Row row;
    row.year = static_cast<Year>(year);
    if (fields.size() >= 3) row.venue = std::string(Trim(fields[2]));
    if (fields.size() >= 4) {
      for (auto a : Split(fields[3], ';')) {
        std::string_view t = Trim(a);
        if (!t.empty()) row.author_names.emplace_back(t);
      }
    }
    if (!rows.emplace(id, std::move(row)).second) {
      return Status::Corruption("duplicate article id " + std::to_string(id));
    }
  }
  const size_t n = rows.size();
  if (n == 0) return Status::Corruption("articles.tsv is empty");
  // Require dense ids 0..n-1 (rows is ordered, so check ends).
  if (rows.begin()->first != 0 ||
      rows.rbegin()->first != static_cast<int64_t>(n) - 1) {
    return Status::Corruption("article ids must be dense 0..n-1");
  }

  Corpus corpus;
  corpus.name = name;
  GraphBuilder builder;
  std::unordered_map<std::string, int32_t> venue_index;
  std::unordered_map<std::string, AuthorId> author_index;
  std::vector<std::vector<AuthorId>> author_lists(n);
  for (const auto& [id, row] : rows) {
    builder.AddNode(row.year);
    if (row.venue.empty()) {
      corpus.venues.push_back(-1);
    } else {
      auto [it, inserted] = venue_index.emplace(
          row.venue, static_cast<int32_t>(corpus.venue_names.size()));
      if (inserted) corpus.venue_names.push_back(row.venue);
      corpus.venues.push_back(it->second);
    }
    for (const std::string& a : row.author_names) {
      auto it = author_index.emplace(a, static_cast<AuthorId>(author_index.size()))
                    .first;
      author_lists[static_cast<size_t>(id)].push_back(it->second);
    }
  }

  while (std::getline(*citations, line)) {
    if (Trim(line).empty() || line[0] == '#') continue;
    auto fields = Split(line, '\t');
    if (fields.size() != 2) {
      return Status::Corruption("citations.tsv row needs 2 fields: '" + line +
                                "'");
    }
    SCHOLAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(fields[0]));
    SCHOLAR_ASSIGN_OR_RETURN(int64_t v, ParseInt64(fields[1]));
    if (u < 0 || v < 0 || u >= static_cast<int64_t>(n) ||
        v >= static_cast<int64_t>(n)) {
      return Status::Corruption("citation endpoint out of range: '" + line +
                                "'");
    }
    SCHOLAR_RETURN_NOT_OK(
        builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v)));
  }
  SCHOLAR_ASSIGN_OR_RETURN(corpus.graph, std::move(builder).Build());
  corpus.authors = PaperAuthors::FromLists(author_lists);
  SCHOLAR_RETURN_NOT_OK(corpus.ConsistencyCheck());
  return corpus;
}

Result<Corpus> ReadTsvCorpusFiles(const std::string& articles_path,
                                  const std::string& citations_path) {
  std::ifstream articles(articles_path);
  if (!articles) return Status::IOError("cannot open: " + articles_path);
  std::ifstream citations(citations_path);
  if (!citations) return Status::IOError("cannot open: " + citations_path);
  return ReadTsvCorpus(&articles, &citations, articles_path);
}

Status WriteTsvCorpus(const Corpus& corpus, std::ostream* articles,
                      std::ostream* citations) {
  SCHOLAR_RETURN_NOT_OK(corpus.ConsistencyCheck());
  for (NodeId i = 0; i < corpus.graph.num_nodes(); ++i) {
    *articles << i << '\t' << corpus.graph.year(i) << '\t';
    if (!corpus.venues.empty() && corpus.venues[i] >= 0) {
      *articles << corpus.venue_names[corpus.venues[i]];
    }
    *articles << '\t';
    if (corpus.has_authors()) {
      auto span = corpus.authors.AuthorsOf(i);
      for (size_t a = 0; a < span.size(); ++a) {
        if (a > 0) *articles << ';';
        *articles << "author_" << span[a];
      }
    }
    *articles << '\n';
  }
  for (NodeId u = 0; u < corpus.graph.num_nodes(); ++u) {
    for (NodeId v : corpus.graph.References(u)) {
      *citations << u << '\t' << v << '\n';
    }
  }
  if (!*articles || !*citations) return Status::IOError("TSV write failed");
  return Status::OK();
}

Status WriteTsvCorpusFiles(const Corpus& corpus,
                           const std::string& articles_path,
                           const std::string& citations_path) {
  std::ofstream articles(articles_path);
  if (!articles) {
    return Status::IOError("cannot open for writing: " + articles_path);
  }
  std::ofstream citations(citations_path);
  if (!citations) {
    return Status::IOError("cannot open for writing: " + citations_path);
  }
  SCHOLAR_RETURN_NOT_OK(WriteTsvCorpus(corpus, &articles, &citations));
  articles.close();
  if (!articles) return Status::IOError("short write: " + articles_path);
  citations.close();
  if (!citations) return Status::IOError("short write: " + citations_path);
  return Status::OK();
}

}  // namespace scholar
