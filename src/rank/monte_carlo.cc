#include "rank/monte_carlo.h"

#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace scholar {

MonteCarloPageRankRanker::MonteCarloPageRankRanker(MonteCarloOptions options)
    : options_(options) {}

Result<RankResult> MonteCarloPageRankRanker::RankImpl(
    const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.walks_per_node <= 0) {
    return Status::InvalidArgument("walks_per_node must be positive");
  }
  if (options_.damping < 0.0 || options_.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0, 1)");
  }
  ViewRowEnds rows;
  const GraphAccess g = AccessOf(ctx, &rows);
  const size_t n = g.num_nodes;
  if (n == 0) return RankResult{};

  Rng rng(options_.seed);
  std::vector<uint64_t> visits(n, 0);
  uint64_t total_visits = 0;
  for (int r = 0; r < options_.walks_per_node; ++r) {
    for (NodeId start = 0; start < n; ++start) {
      NodeId current = start;
      while (true) {
        ++visits[current];
        ++total_visits;
        const size_t degree = g.OutDegree(current);
        if (degree == 0 || !rng.NextBernoulli(options_.damping)) break;
        current = g.out_neighbors[g.out_begin[current] +
                                  rng.NextBounded(degree)];
      }
    }
  }

  RankResult result;
  result.scores.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.scores[v] =
        static_cast<double>(visits[v]) / static_cast<double>(total_visits);
  }
  // One pass, no iteration loop; report the number of walk batches.
  result.iterations = options_.walks_per_node;
  return result;
}

}  // namespace scholar
