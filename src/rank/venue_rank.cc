#include "rank/venue_rank.h"

#include <algorithm>
#include <string>
#include <utility>

namespace scholar {

VenueRankRanker::VenueRankRanker(VenueRankOptions options)
    : options_(options) {}

Result<RankResult> VenueRankRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(
      ValidateContext(ctx, /*requires_authors=*/false,
                      /*requires_venues=*/true));
  if (options_.lambda < 0.0 || options_.lambda > 1.0) {
    return Status::InvalidArgument("lambda must be in [0, 1], got " +
                                   std::to_string(options_.lambda));
  }
  if (options_.iterations <= 0) {
    return Status::InvalidArgument("iterations must be positive");
  }
  ViewRowEnds rows;
  const GraphAccess g = AccessOf(ctx, &rows);
  const size_t n = g.num_nodes;
  if (n == 0) return RankResult{};

  // The venue map is indexed by parent id: gather the ranked articles'.
  std::vector<int32_t> venues(n);
  int32_t max_venue = -1;
  for (NodeId i = 0; i < n; ++i) {
    venues[i] = (*ctx.venues)[ctx.ToParent(i)];
    if (venues[i] < -1) {
      return Status::InvalidArgument("venue index below -1");
    }
    max_venue = std::max(max_venue, venues[i]);
  }
  const size_t num_venues = static_cast<size_t>(max_venue) + 1;

  // Citation evidence: age-normalized in-degree, percentile-normalized so
  // the venue prior mixes on a comparable scale.
  const Year now = ctx.EffectiveNow();
  std::vector<double> cite_evidence(n);
  for (NodeId i = 0; i < n; ++i) {
    const double age = std::max<int64_t>(1, YearGap(now, g.years[i]) + 1);
    cite_evidence[i] = static_cast<double>(g.InDegree(i)) / age;
  }
  cite_evidence = MidrankPercentiles(cite_evidence);

  std::vector<double> scores = cite_evidence;
  std::vector<double> prestige(num_venues, 0.5);
  RankResult result;
  for (int iter = 0; iter < options_.iterations; ++iter) {
    // Venue pass: prestige = mean normalized article standing.
    std::vector<double> sums(num_venues, 0.0);
    std::vector<size_t> counts(num_venues, 0);
    std::vector<double> normalized = MidrankPercentiles(scores);
    double global_sum = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      global_sum += normalized[i];
      if (venues[i] >= 0) {
        sums[venues[i]] += normalized[i];
        ++counts[venues[i]];
      }
    }
    const double global_mean = global_sum / static_cast<double>(n);
    for (size_t j = 0; j < num_venues; ++j) {
      prestige[j] = counts[j] > 0
                        ? sums[j] / static_cast<double>(counts[j])
                        : global_mean;
    }
    // Article pass.
    for (NodeId i = 0; i < n; ++i) {
      const double prior =
          venues[i] >= 0 ? prestige[venues[i]] : global_mean;
      scores[i] = options_.lambda * cite_evidence[i] +
                  (1.0 - options_.lambda) * prior;
    }
    result.iterations = iter + 1;
  }
  result.scores = std::move(scores);
  return result;
}

}  // namespace scholar
