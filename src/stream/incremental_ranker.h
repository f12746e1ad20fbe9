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
  /// Registry name: any of the iterative kernels (pagerank, twpr, hits,
  /// katz, sceas, ...) or an ens_* ensemble. Closed-form rankers work too;
  /// they simply ignore the seed.
  std::string ranker = "pagerank";
  /// Ranker parameters (tolerance=, threads=, sigma=, ...), passed to
  /// MakeRanker verbatim.
  Config config;
  /// "full": every epoch runs the kernel over the whole graph, warm-seeded
  /// from the previous scores — the fixed point is exact (identical to a
  /// cold rank up to the solver tolerance), only the round count shrinks.
  /// pagerank and twpr ignore the seed: each epoch is one exact
  /// publication-order pass, bit-identical to a cold rank.
  /// "frontier": active-set PageRank (pagerank only) that re-gathers just
  /// the subgraph the update can still move — cheapest, with the bounded
  /// drift documented on FrontierPowerIteration.
  std::string mode = "full";
  /// Frontier staleness knob (mode=frontier); see FrontierOptions.
  double frontier_tolerance = 1e-12;
};

/// Continuous re-ranking state: wraps a registry ranker and carries the
/// previous score vector (at its solver-native magnitude, via
/// RankResult::score_mass) from epoch to epoch. After a batch lands, the
/// new graph's iteration starts from the extended previous scores instead
/// of a cold start, so it converges in a fraction of the rounds — the
/// scores themselves shift smoothly under small suffix appends.
class IncrementalRanker {
 public:
  static Result<IncrementalRanker> Create(IncrementalRankerOptions options);

  /// Full-accuracy rank with no seed; resets the warm chain. Use for the
  /// bootstrap epoch and as the drift oracle.
  Result<RankResult> RankCold(const CitationGraph& graph);

  /// Warm rank of a grown graph, seeded from the previous result (falls
  /// back to a cold rank when there is none). `dirty` lists nodes whose
  /// adjacency the update changed — required by mode=frontier, ignored by
  /// mode=full.
  Result<RankResult> RankWarm(const CitationGraph& graph,
                              const std::vector<NodeId>& dirty = {});

  bool has_previous() const { return !previous_scores_.empty(); }
  const std::vector<double>& previous_scores() const {
    return previous_scores_;
  }
  const std::string& ranker_name() const { return options_.ranker; }
  const std::string& mode() const { return options_.mode; }

 private:
  IncrementalRanker(IncrementalRankerOptions options,
                    std::shared_ptr<const Ranker> ranker)
      : options_(std::move(options)), ranker_(std::move(ranker)) {}

  void Remember(const RankResult& result);

  IncrementalRankerOptions options_;
  std::shared_ptr<const Ranker> ranker_;
  std::vector<double> previous_scores_;
  double previous_mass_ = 1.0;
};

/// Extends a previous score vector (output-normalized, with its reported
/// score_mass) to `new_num_nodes` at the solver's natural magnitude: old
/// entries are rescaled by the mass, new articles get the mean old value.
/// Unlike rank/pagerank.h's ExtendScoresForGrownGraph this does NOT
/// renormalize — the affine-fixed-point kernels need the magnitude kept.
std::vector<double> ExtendSeedForGrownGraph(
    const std::vector<double>& old_scores, double old_mass,
    size_t new_num_nodes);

}  // namespace stream
}  // namespace scholar

#endif  // SCHOLARRANK_STREAM_INCREMENTAL_RANKER_H_
