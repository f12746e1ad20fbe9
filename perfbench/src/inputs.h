#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "graph/citation_graph.h"

/// Seeded input generation. Everything a workload hands to the program is
/// made here, before timing, from the workload seed alone: the same seed
/// gives byte-identical inputs.
namespace perfbench {

/// AMiner-profile synthetic corpus of `articles` articles (ids in
/// publication order, as the generator emits them).
scholar::Corpus MakeCorpus(size_t articles, uint64_t seed);

/// The corpus as AMiner V8 text with its records in seeded shuffled order,
/// the way real dumps arrive (not year-sorted). Written by the library's
/// own AMiner writer, then reordered record by record.
std::string ShuffledAMinerText(const scholar::Corpus& corpus, uint64_t seed);

/// A stream replay cut from a year-ordered graph: the oldest `base_nodes`
/// articles form the bootstrap graph, every following window of
/// `batch_nodes` articles becomes one EdgeBatch, serialized to wire bytes.
/// References into a later window cannot be replayed under the suffix-only
/// contract and are dropped.
struct StreamInputs {
  scholar::CitationGraph base;
  std::vector<std::string> wire;  // one serialized EdgeBatch per epoch
  std::vector<size_t> first_new_id;  // id of the first article of batch i
  std::vector<size_t> batch_nodes;   // articles in batch i
};
StreamInputs CutStream(const scholar::CitationGraph& graph, size_t base_nodes,
                       size_t batch_nodes);

/// Read request kinds of the query mix.
enum class Kind : uint8_t { kTopK, kScore, kRank, kPercentile, kNeighbors };

/// One scheduled read: when to send it (ns after the schedule starts),
/// where its request line sits in Schedule::text, and whether its reply is
/// value-checked. Kept small: a ladder schedule holds a million of them.
struct Request {
  int64_t at_ns = 0;
  uint32_t line_begin = 0;
  uint32_t id = 0;      // article id (score/rank/percentile/neighbors)
  uint16_t line_len = 0;  // including the '\n'
  uint16_t offset = 0;  // top_k page offset
  uint8_t k = 0;        // top_k / neighbors k
  Kind kind = Kind::kScore;
  bool citers = false;  // neighbors direction
  bool check = false;
};

/// A request schedule: the requests in send order plus all their lines,
/// rendered before timing into one buffer.
struct Schedule {
  std::vector<Request> requests;
  std::string text;

  size_t size() const { return requests.size(); }
  bool empty() const { return requests.empty(); }
  const Request& operator[](size_t i) const { return requests[i]; }
  /// Request line i, with its '\n'.
  std::string_view Line(size_t i) const {
    return std::string_view(text).substr(requests[i].line_begin,
                                         requests[i].line_len);
  }
};

/// Open-loop Poisson schedule at `rate_per_s` for `seconds` of the query
/// mix: score 40%, top_k 25%, percentile 15%, rank 10%, neighbors 10% (the
/// serve_loadgen default). Article ids are Zipf(1.1) over [0, id_space),
/// so a head of popular articles dominates; k is 10 and top_k asks for one
/// of the first ten pages. Each request's reply is value-checked with
/// probability `check_fraction`.
Schedule MakeSchedule(double rate_per_s, double seconds, uint32_t id_space,
                      double check_fraction, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
