#ifndef SCHOLARRANK_RANK_HITS_H_
#define SCHOLARRANK_RANK_HITS_H_

#include <string>

#include "graph/graph_access.h"
#include "rank/kernel/kernel_options.h"
#include "rank/ranker.h"

namespace scholar {

/// HITS (Kleinberg, 1999) on the citation digraph. Authority of an article
/// is the sum of the hub scores of its citers; hub of an article is the sum
/// of the authorities it cites. Scores are L2-normalized each round. The
/// ranker reports authority scores (the natural notion of article
/// importance).
struct HitsOptions {
  double tolerance = 1e-10;
  int max_iterations = 200;
  /// Worker threads for the gather passes: 0 = hardware concurrency,
  /// 1 = serial. Bit-identical results at every setting.
  int threads = 0;
  /// Iteration-engine variant knobs (SIMD / precision / adaptive
  /// convergence), applied to both gather orientations; see
  /// rank/kernel/kernel_options.h.
  kernel::KernelOptions kernel;
};

class HitsRanker : public Ranker {
 public:
  explicit HitsRanker(HitsOptions options = {});

  std::string name() const override { return "hits"; }
  Result<RankResult> RankImpl(const RankContext& ctx) const override;

  /// Full output including hub scores, for callers that want both sides.
  struct HubsAndAuthorities {
    std::vector<double> authorities;
    std::vector<double> hubs;
    int iterations = 0;
    bool converged = true;
  };
  Result<HubsAndAuthorities> RankBoth(const CitationGraph& graph) const;

 private:
  /// The iteration, written against GraphAccess so full graphs and
  /// zero-copy snapshot views share one code path. `initial_authorities`
  /// (optional) warm-starts the alternation: the authority vector is
  /// seeded from it and the hub vector from one out-CSR gather over it,
  /// so both sides start near the previous fixed point. The principal
  /// eigenvector the power method converges to is unchanged.
  Result<HubsAndAuthorities> RankBothOnAccess(
      const GraphAccess& a, size_t workers,
      const std::vector<double>* initial_authorities = nullptr) const;

  HitsOptions options_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_RANK_HITS_H_
