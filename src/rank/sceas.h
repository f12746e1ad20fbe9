#ifndef SCHOLARRANK_RANK_SCEAS_H_
#define SCHOLARRANK_RANK_SCEAS_H_

#include <string>

#include "rank/ranker.h"

namespace scholar {

/// SceasRank (Sidiropoulos & Manolopoulos, 2005) — a scholarly-specific
/// PageRank variant designed to react faster to new articles: a citation
/// contributes a constant base credit `b` immediately, plus the citer's own
/// score attenuated by `a` (> 1), so an article does not need citers that
/// are themselves cited to start accumulating score:
///
///   s(v) = Σ_{u cites v} (s(u) + b) / (a · outdeg(u))
///
/// With a = e and b = 1 (the authors' values) the iteration is a
/// contraction (1/a < 1), so it converges without teleportation. The
/// publication-order solver (rank/pagerank.h) solves it in one pass on a
/// clean corpus, and the result is L1-normalized, which makes any b > 0
/// rank alike; b = 0 scores every article 0.
struct SceasOptions {
  /// Direct-citation credit added per citation.
  double b = 1.0;
  /// Attenuation of indirect (propagated) score; must be > 1.
  double a = 2.718281828459045;
  /// Only consulted when a kept reference points to a newer article: the
  /// solver's passes then repeat until the L1 change of the scores drops
  /// below this.
  double tolerance = 1e-10;
  /// Cap on those passes.
  int max_iterations = 200;
  /// Worker threads for the per-row setup: 0 = hardware concurrency,
  /// 1 = serial. The pass is serial, so scores are bit-identical at every
  /// setting.
  int threads = 0;
};

class SceasRanker : public Ranker {
 public:
  explicit SceasRanker(SceasOptions options = {});

  std::string name() const override { return "sceas"; }

  const SceasOptions& options() const { return options_; }

 private:
  Result<RankResult> RankImpl(const RankContext& ctx) const override;

  SceasOptions options_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_RANK_SCEAS_H_
