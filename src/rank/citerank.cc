#include "rank/citerank.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "graph/temporal_csr.h"

namespace scholar {

CiteRankRanker::CiteRankRanker(CiteRankOptions options) : options_(options) {}

Result<RankResult> CiteRankRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.tau <= 0.0) {
    return Status::InvalidArgument("tau must be > 0, got " +
                                   std::to_string(options_.tau));
  }
  const size_t n = ctx.NumNodes();
  if (n == 0) return RankResult{};

  // The restart distribution reads only years, which a view keeps as the
  // prefix of its sorted parent's year array.
  const Year* years =
      ctx.view != nullptr ? ctx.view->parent_years().data()
                          : ctx.graph->years().data();
  const Year now = ctx.EffectiveNow();
  std::vector<double> jump(n);
  double total = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    const double age = std::max<int64_t>(0, YearGap(now, years[v]));
    jump[v] = std::exp(-age / options_.tau);
    total += jump[v];
  }
  for (double& j : jump) j /= total;

  const PowerIterationOptions& power = options_.power;
  const std::vector<double> no_initial;
  const std::vector<double>& initial =
      ctx.initial_scores != nullptr ? *ctx.initial_scores : no_initial;
  if (ctx.view != nullptr) {
    return WeightedPowerIterationOnView(*ctx.view, /*out_edge_weights=*/{},
                                        /*in_edge_weights=*/{}, jump, power,
                                        initial, ctx.scratch);
  }
  return WeightedPowerIteration(*ctx.graph, /*edge_weights=*/{}, jump, power,
                                initial, ctx.scratch);
}

}  // namespace scholar
