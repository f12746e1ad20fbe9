#ifndef SCHOLARRANK_RANK_TIME_WEIGHTED_PAGERANK_H_
#define SCHOLARRANK_RANK_TIME_WEIGHTED_PAGERANK_H_

#include <string>
#include <vector>

#include "rank/pagerank.h"
#include "rank/ranker.h"

namespace scholar {

/// Parameters of Time-Weighted PageRank (the paper's base ranker).
struct TwprOptions {
  /// Exponential decay rate, per year, of the weight a citing article
  /// propagates to a reference: w(u,v) = exp(-sigma * (t(u) - t(v))).
  /// sigma = 0 recovers classic PageRank edge weighting.
  double sigma = 0.4;

  /// When true, the teleport distribution favours recent articles:
  /// jump(v) ∝ exp(-rho * (now - t(v))). When false (the default), the jump
  /// is uniform and the time signal enters only through edge weights.
  bool recency_jump = false;

  /// Decay rate of the recency jump (only used when recency_jump is true).
  double rho = 0.1;

  PowerIterationOptions power = {};
};

/// Time-Weighted PageRank.
///
/// Intuition: when article u distributes its importance over its reference
/// list, a reference published long before u contributed "old" knowledge
/// whose influence on u has decayed; a contemporaneous reference carries a
/// fresher, stronger endorsement. TWPR therefore splits u's score over its
/// references proportionally to exp(-sigma * gap(u, v)) where
/// gap = max(0, t(u) - t(v)). Backward (time-travel) citations found in
/// dirty data are treated as gap 0. The weights come from a YearGapWeights
/// table, and the system is solved by SolveInPublicationOrder.
class TimeWeightedPageRank : public Ranker {
 public:
  explicit TimeWeightedPageRank(TwprOptions options = {});

  std::string name() const override { return "twpr"; }
  Result<RankResult> RankImpl(const RankContext& ctx) const override;

  const TwprOptions& options() const { return options_; }

  /// Exposed for tests and the ablation bench: per-edge weights aligned
  /// with graph.out_neighbors(), read from the graph's YearGapWeights
  /// table. `pool` (optional) parallelizes the edge sweep; the result is
  /// bit-identical with and without it.
  static std::vector<double> ComputeEdgeWeights(const CitationGraph& graph,
                                                double sigma,
                                                ThreadPool* pool = nullptr);

  /// Same weights in *in-edge* order (aligned with graph.in_neighbors()):
  /// entry p is exp(-sigma * gap(citer, row owner)).
  static std::vector<double> ComputeInEdgeWeights(const CitationGraph& graph,
                                                  double sigma,
                                                  ThreadPool* pool = nullptr);

  /// Exposed for tests: the recency teleport distribution (sums to 1).
  /// `pool` (optional) parallelizes the sweep; the normalizing total is an
  /// ordered per-chunk reduction, so the result is bit-identical with and
  /// without it.
  static std::vector<double> ComputeRecencyJump(const CitationGraph& graph,
                                                double rho, Year now,
                                                ThreadPool* pool = nullptr);

  /// Span core of ComputeRecencyJump: the distribution over
  /// `years[0 .. n)`. A snapshot view passes the prefix of its sorted
  /// parent's year array, giving the same chunk geometry — and therefore
  /// bit-identical output — as the materialized snapshot of the same n.
  static std::vector<double> ComputeRecencyJump(const Year* years, size_t n,
                                                double rho, Year now,
                                                ThreadPool* pool = nullptr);

 private:
  TwprOptions options_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_RANK_TIME_WEIGHTED_PAGERANK_H_
