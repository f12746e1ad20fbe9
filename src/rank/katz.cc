#include "rank/katz.h"

#include <string>

#include "rank/pagerank.h"

namespace scholar {

KatzRanker::KatzRanker(KatzOptions options) : options_(options) {}

Result<RankResult> KatzRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.alpha <= 0.0 || options_.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1), got " +
                                   std::to_string(options_.alpha));
  }
  // With t = s + 1, s = alpha * A^T (s + 1) reads t = 1 + alpha * A^T t:
  // the solver's system with a uniform jump of 1, every kept reference
  // weighted alpha, and scores t - 1.
  PowerIterationOptions power;
  power.damping = options_.alpha;
  power.tolerance = options_.tolerance;
  power.max_iterations = options_.max_iterations;
  power.threads = options_.threads;
  LinearForm form;
  form.unnormalized_rows = true;
  form.shift = -1.0;
  return RankInPublicationOrder(ctx, [&](const SnapshotView& view) {
    return SolveInPublicationOrder(view, /*weights=*/nullptr, /*jump=*/{},
                                   power, ctx.scratch, form);
  });
}

}  // namespace scholar
