#ifndef SCHOLARRANK_STREAM_INCREMENTAL_RANKER_H_
#define SCHOLARRANK_STREAM_INCREMENTAL_RANKER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "graph/citation_graph.h"
#include "graph/types.h"
#include "rank/ranker.h"
#include "util/config.h"
#include "util/status.h"

namespace scholar {
namespace stream {

struct IncrementalRankerOptions {
  /// Registry name: any base ranker (pagerank, twpr, hits, katz, sceas,
  /// ...) or an ens_* ensemble.
  std::string ranker = "pagerank";
  /// Ranker parameters (tolerance=, threads=, sigma=, ...), passed to
  /// MakeRanker verbatim.
  Config config;
  /// Must be "full": every epoch ranks the whole grown graph. Any other
  /// value is InvalidArgument.
  std::string mode = "full";
};

/// Continuous re-ranking state: wraps a registry ranker and carries the
/// previous score vector from epoch to epoch. Each epoch ranks the whole
/// grown graph. The linear rankers (pagerank, twpr, citerank, katz, sceas)
/// solve it in one exact publication-order pass, bit-identical to a cold
/// rank; HITS starts its power iteration from the extended previous scores
/// and so converges in fewer rounds to the same fixed point.
class IncrementalRanker {
 public:
  static Result<IncrementalRanker> Create(IncrementalRankerOptions options);

  /// Full-accuracy rank with no seed; resets the warm chain. Use for the
  /// bootstrap epoch and as the drift oracle.
  Result<RankResult> RankCold(const CitationGraph& graph);

  /// Rank of a grown graph, seeded from the previous result (falls back to
  /// a cold rank when there is none).
  Result<RankResult> RankWarm(const CitationGraph& graph);

  bool has_previous() const { return !previous_scores_.empty(); }
  const std::vector<double>& previous_scores() const {
    return previous_scores_;
  }
  const std::string& ranker_name() const { return options_.ranker; }

 private:
  IncrementalRanker(IncrementalRankerOptions options,
                    std::shared_ptr<const Ranker> ranker)
      : options_(std::move(options)), ranker_(std::move(ranker)) {}

  IncrementalRankerOptions options_;
  std::shared_ptr<const Ranker> ranker_;
  std::vector<double> previous_scores_;
};

/// Extends a previous score vector to `new_num_nodes`: old entries are
/// copied, new articles get the mean of the youngest old decile. Empty when
/// there is nothing to extend (no old scores, or the graph shrank).
std::vector<double> ExtendSeedForGrownGraph(
    const std::vector<double>& old_scores, size_t new_num_nodes);

}  // namespace stream
}  // namespace scholar

#endif  // SCHOLARRANK_STREAM_INCREMENTAL_RANKER_H_
