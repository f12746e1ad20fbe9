#include "rank/sceas.h"

#include <string>
#include <vector>

#include "rank/pagerank.h"

namespace scholar {

SceasRanker::SceasRanker(SceasOptions options) : options_(options) {}

Result<RankResult> SceasRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.a <= 1.0) {
    return Status::InvalidArgument(
        "a must be > 1 for the SceasRank iteration to contract, got " +
        std::to_string(options_.a));
  }
  if (options_.b < 0.0) {
    return Status::InvalidArgument("b must be >= 0");
  }
  // Without base credit nothing flows: s = 0 is the fixed point.
  if (options_.b <= 0.0) {
    RankResult zero;
    zero.scores.assign(ctx.NumNodes(), 0.0);
    return zero;
  }
  // With t = (s + b) / b the system reads t = 1 + (1/a) * P^T t, P the
  // row-normalized citation matrix: PageRank's own system with damping
  // 1/a, and scores b * (t - 1), which normalize to (t - 1) / sum(t - 1).
  PowerIterationOptions power;
  power.damping = 1.0 / options_.a;
  power.tolerance = options_.tolerance;
  power.max_iterations = options_.max_iterations;
  power.threads = options_.threads;
  LinearForm form;
  form.shift = -1.0;
  return RankInPublicationOrder(ctx, [&](const SnapshotView& view) {
    return SolveInPublicationOrder(view, /*weights=*/nullptr, /*jump=*/{},
                                   power, ctx.scratch, form);
  });
}

}  // namespace scholar
