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
  return RankInPublicationOrder(ctx, [&](const SnapshotView& view) {
    // The restart distribution reads only years, which a view keeps as the
    // prefix of its sorted parent's year array.
    const size_t n = view.num_nodes();
    const Year* years = view.parent_years().data();
    const Year now = ctx.EffectiveNow();
    std::vector<double> jump(n);
    double total = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      const double age = std::max<int64_t>(0, YearGap(now, years[v]));
      jump[v] = std::exp(-age / options_.tau);
      total += jump[v];
    }
    for (double& j : jump) j /= total;
    return SolveInPublicationOrder(view, /*weights=*/nullptr, jump,
                                   options_.power, ctx.scratch);
  });
}

}  // namespace scholar
