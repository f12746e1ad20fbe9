#include "stream/incremental_ranker.h"

#include <algorithm>
#include <utility>

namespace scholar {
namespace stream {

std::vector<double> ExtendSeedForGrownGraph(
    const std::vector<double>& old_scores, size_t new_num_nodes) {
  if (old_scores.empty() || old_scores.size() > new_num_nodes) {
    return {};  // empty = "no seed"; the rankers fall back to cold
  }
  std::vector<double> seed;
  seed.reserve(new_num_nodes);
  seed.assign(old_scores.begin(), old_scores.end());
  // New articles score like *recent* articles, not average ones — a fresh
  // paper has had no time to accumulate citations. Node ids are
  // year-monotone, so the tail decile of the old vector is exactly the
  // youngest cohort; its mean is a far closer guess than the global mean,
  // which is inflated by decades-old heavily cited work.
  const size_t cohort = std::max<size_t>(1, old_scores.size() / 10);
  double tail = 0.0;
  for (size_t i = seed.size() - cohort; i < seed.size(); ++i) tail += seed[i];
  seed.resize(new_num_nodes, tail / static_cast<double>(cohort));
  return seed;
}

Result<IncrementalRanker> IncrementalRanker::Create(
    IncrementalRankerOptions options) {
  if (options.mode != "full") {
    return Status::InvalidArgument("mode must be 'full', got '" +
                                   options.mode + "'");
  }
  SCHOLAR_ASSIGN_OR_RETURN(std::shared_ptr<const Ranker> ranker,
                           MakeRanker(options.ranker, options.config));
  return IncrementalRanker(std::move(options), std::move(ranker));
}

Result<RankResult> IncrementalRanker::RankCold(const CitationGraph& graph) {
  RankContext ctx;
  ctx.graph = &graph;
  SCHOLAR_ASSIGN_OR_RETURN(RankResult result, ranker_->Rank(ctx));
  previous_scores_ = result.scores;
  return result;
}

Result<RankResult> IncrementalRanker::RankWarm(const CitationGraph& graph) {
  if (previous_scores_.empty()) return RankCold(graph);
  if (previous_scores_.size() > graph.num_nodes()) {
    return Status::FailedPrecondition(
        "warm chain broken: previous scores cover " +
        std::to_string(previous_scores_.size()) +
        " nodes but the graph shrank to " +
        std::to_string(graph.num_nodes()) +
        " (streams only grow; call RankCold)");
  }
  const std::vector<double> seed =
      ExtendSeedForGrownGraph(previous_scores_, graph.num_nodes());
  RankContext ctx;
  ctx.graph = &graph;
  ctx.initial_scores = &seed;
  SCHOLAR_ASSIGN_OR_RETURN(RankResult result, ranker_->Rank(ctx));
  previous_scores_ = result.scores;
  return result;
}

}  // namespace stream
}  // namespace scholar
