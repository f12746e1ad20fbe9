#ifndef SCHOLARRANK_RANK_KATZ_H_
#define SCHOLARRANK_RANK_KATZ_H_

#include <string>

#include "rank/ranker.h"

namespace scholar {

/// Katz centrality (Katz, 1953) on the citation digraph: an article's
/// importance is the attenuation-weighted count of all citation paths
/// ending at it,
///
///   s = Σ_{ℓ>=1} alpha^ℓ (A^T)^ℓ 1   ⇔   s <- alpha · A^T (s + 1)
///
/// where A[u][v] = 1 iff u cites v. Converges for alpha < 1/λ_max. The
/// publication-order solver (rank/pagerank.h) solves it in one pass on a
/// clean corpus, and the result is L1-normalized. A classic structural
/// baseline that, unlike PageRank, does not split a citer's endorsement
/// across its reference list.
struct KatzOptions {
  /// Attenuation per path hop. Must be in (0, 1); values above 1/λ_max of
  /// the citation matrix diverge — the implementation detects divergence
  /// and reports FailedPrecondition.
  double alpha = 0.05;
  /// Only consulted when a kept reference points to a newer article: the
  /// solver's passes then repeat until the scores and their mass settle
  /// below this.
  double tolerance = 1e-10;
  /// Cap on those passes.
  int max_iterations = 200;
  /// Worker threads for the per-row setup: 0 = hardware concurrency,
  /// 1 = serial. The pass is serial, so scores are bit-identical at every
  /// setting.
  int threads = 0;
};

class KatzRanker : public Ranker {
 public:
  explicit KatzRanker(KatzOptions options = {});

  std::string name() const override { return "katz"; }

  const KatzOptions& options() const { return options_; }

 private:
  Result<RankResult> RankImpl(const RankContext& ctx) const override;

  KatzOptions options_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_RANK_KATZ_H_
