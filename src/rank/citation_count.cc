#include "rank/citation_count.h"

#include <algorithm>

namespace scholar {

Result<RankResult> CitationCountRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  ViewRowEnds rows;
  const GraphAccess g = AccessOf(ctx, &rows);
  RankResult result;
  result.scores.resize(g.num_nodes);
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    result.scores[v] = static_cast<double>(g.InDegree(v));
  }
  return result;
}

Result<RankResult> AgeNormalizedCitationCountRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  ViewRowEnds rows;
  const GraphAccess g = AccessOf(ctx, &rows);
  const Year now = ctx.EffectiveNow();
  RankResult result;
  result.scores.resize(g.num_nodes);
  for (NodeId v = 0; v < g.num_nodes; ++v) {
    // Age is clamped below at 1 year so same-year articles are not divided
    // by zero (and future-dated articles, which occur in dirty data, do not
    // get a negative divisor).
    const double age = std::max<int64_t>(1, YearGap(now, g.years[v]) + 1);
    result.scores[v] = static_cast<double>(g.InDegree(v)) / age;
  }
  return result;
}

}  // namespace scholar
