#ifndef SCHOLARRANK_RANK_SCEAS_H_
#define SCHOLARRANK_RANK_SCEAS_H_

#include <string>

#include "rank/kernel/kernel_options.h"
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
/// contraction (1/a < 1), so it converges without teleportation. Scores are
/// L1-normalized afterwards.
struct SceasOptions {
  /// Direct-citation credit added per citation.
  double b = 1.0;
  /// Attenuation of indirect (propagated) score; must be > 1.
  double a = 2.718281828459045;
  double tolerance = 1e-10;
  int max_iterations = 200;
  /// Worker threads for the gather passes: 0 = hardware concurrency,
  /// 1 = serial. Bit-identical results at every setting.
  int threads = 0;
  /// Iteration-engine variant knobs (SIMD / precision / adaptive
  /// convergence); see rank/kernel/kernel_options.h.
  kernel::KernelOptions kernel;
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
