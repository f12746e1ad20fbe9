#ifndef SCHOLARRANK_TESTS_AMINER_ORACLE_H_
#define SCHOLARRANK_TESTS_AMINER_ORACLE_H_

// The line-at-a-time AMiner reader that ReadAMinerCorpus replaced, kept as
// the differential tests' oracle: a getline loop building one record struct
// per article, std::unordered_map interning and id resolution, and
// GraphBuilder for the graph. ReadAMinerCorpus must return this reader's
// exact Status (code and message) or a Corpus equal to its, field by field,
// and log the same dropped-reference warning.

#include <algorithm>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "graph/graph_builder.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace scholar {
namespace testing_util {

namespace oracle_internal {

/// One partially parsed AMiner record.
struct AMinerRecord {
  std::string title;
  std::vector<std::string> author_names;
  Year year = kUnknownYear;
  std::string venue;
  int64_t index = -1;
  std::vector<int64_t> refs;
  bool has_any_field = false;
};

inline Status FlushRecord(AMinerRecord* rec, std::vector<AMinerRecord>* out) {
  if (!rec->has_any_field) return Status::OK();
  if (rec->index < 0) {
    return Status::Corruption("AMiner record without #index (title: '" +
                              rec->title + "')");
  }
  out->push_back(std::move(*rec));
  *rec = AMinerRecord();
  return Status::OK();
}

}  // namespace oracle_internal

inline Result<Corpus> OracleReadAMinerCorpus(std::istream* in,
                                             const std::string& name) {
  using oracle_internal::AMinerRecord;
  using oracle_internal::FlushRecord;
  std::vector<AMinerRecord> records;
  AMinerRecord current;
  std::string line;
  while (std::getline(*in, line)) {
    std::string_view sv = Trim(line);
    if (sv.empty()) {
      SCHOLAR_RETURN_NOT_OK(FlushRecord(&current, &records));
      continue;
    }
    if (StartsWith(sv, "#index")) {
      // A new #index while the current record already has one starts a new
      // record even without a separating blank line.
      if (current.index >= 0) {
        SCHOLAR_RETURN_NOT_OK(FlushRecord(&current, &records));
      }
      SCHOLAR_ASSIGN_OR_RETURN(current.index, ParseInt64(sv.substr(6)));
      current.has_any_field = true;
    } else if (StartsWith(sv, "#*")) {
      current.title = std::string(Trim(sv.substr(2)));
      current.has_any_field = true;
    } else if (StartsWith(sv, "#@")) {
      for (auto a : Split(sv.substr(2), ';')) {
        std::string_view t = Trim(a);
        if (!t.empty()) current.author_names.emplace_back(t);
      }
      current.has_any_field = true;
    } else if (StartsWith(sv, "#t")) {
      SCHOLAR_ASSIGN_OR_RETURN(int64_t y, ParseInt64(sv.substr(2)));
      current.year = static_cast<Year>(y);
      current.has_any_field = true;
    } else if (StartsWith(sv, "#c")) {
      current.venue = std::string(Trim(sv.substr(2)));
      current.has_any_field = true;
    } else if (StartsWith(sv, "#%")) {
      SCHOLAR_ASSIGN_OR_RETURN(int64_t ref, ParseInt64(sv.substr(2)));
      current.refs.push_back(ref);
      current.has_any_field = true;
    }
    // Unknown tags (#!, abstract, ...) are ignored.
  }
  SCHOLAR_RETURN_NOT_OK(FlushRecord(&current, &records));
  if (records.empty()) return Status::Corruption("no AMiner records found");

  // External index -> dense id.
  std::unordered_map<int64_t, NodeId> dense;
  dense.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    auto [it, inserted] =
        dense.emplace(records[i].index, static_cast<NodeId>(i));
    if (!inserted) {
      return Status::Corruption("duplicate #index " +
                                std::to_string(records[i].index));
    }
  }

  // Year fallback: records without #t get the corpus minimum year.
  Year min_year = std::numeric_limits<Year>::max();
  bool any_year = false;
  for (const auto& r : records) {
    if (r.year != kUnknownYear) {
      min_year = std::min(min_year, r.year);
      any_year = true;
    }
  }
  if (!any_year) min_year = 0;

  Corpus corpus;
  corpus.name = name;
  GraphBuilder builder;
  std::unordered_map<std::string, int32_t> venue_index;
  std::unordered_map<std::string, AuthorId> author_index;
  std::vector<std::vector<AuthorId>> author_lists(records.size());
  size_t dropped_refs = 0;

  for (size_t i = 0; i < records.size(); ++i) {
    const AMinerRecord& r = records[i];
    builder.AddNode(r.year == kUnknownYear ? min_year : r.year);
    corpus.external_ids.push_back(static_cast<uint64_t>(r.index));
    corpus.titles.push_back(r.title);
    if (r.venue.empty()) {
      corpus.venues.push_back(-1);
    } else {
      auto [it, inserted] = venue_index.emplace(
          r.venue, static_cast<int32_t>(corpus.venue_names.size()));
      if (inserted) corpus.venue_names.push_back(r.venue);
      corpus.venues.push_back(it->second);
    }
    for (const std::string& a : r.author_names) {
      auto it = author_index
                    .emplace(a, static_cast<AuthorId>(author_index.size()))
                    .first;
      author_lists[i].push_back(it->second);
    }
  }
  for (size_t i = 0; i < records.size(); ++i) {
    for (int64_t ref : records[i].refs) {
      auto it = dense.find(ref);
      if (it == dense.end()) {
        ++dropped_refs;
        continue;
      }
      SCHOLAR_RETURN_NOT_OK(
          builder.AddEdge(static_cast<NodeId>(i), it->second));
    }
  }
  if (dropped_refs > 0) {
    SCHOLAR_LOG(kWarning) << "dropped " << dropped_refs
                          << " references to articles outside the file";
  }
  SCHOLAR_ASSIGN_OR_RETURN(corpus.graph, std::move(builder).Build());
  corpus.authors = PaperAuthors::FromLists(author_lists);
  SCHOLAR_RETURN_NOT_OK(corpus.ConsistencyCheck());
  return corpus;
}

}  // namespace testing_util
}  // namespace scholar

#endif  // SCHOLARRANK_TESTS_AMINER_ORACLE_H_
