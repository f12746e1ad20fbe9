#include "core/registry.h"

#include "ensemble/ensemble_ranker.h"
#include "rank/citation_count.h"
#include "rank/citerank.h"
#include "rank/futurerank.h"
#include "rank/hits.h"
#include "rank/katz.h"
#include "rank/monte_carlo.h"
#include "rank/pagerank.h"
#include "rank/sceas.h"
#include "rank/time_weighted_pagerank.h"
#include "rank/venue_rank.h"
#include "util/string_util.h"

namespace scholar {
namespace {

PowerIterationOptions PowerOptionsFromConfig(const Config& config) {
  PowerIterationOptions o;
  o.damping = config.GetDoubleOr("damping", o.damping);
  o.tolerance = config.GetDoubleOr("tolerance", o.tolerance);
  o.max_iterations = static_cast<int>(
      config.GetIntOr("max_iterations", o.max_iterations));
  o.threads = static_cast<int>(config.GetIntOr("threads", o.threads));
  return o;
}

}  // namespace

Result<std::shared_ptr<const Ranker>> MakeRanker(const std::string& name,
                                                 const Config& config) {
  const std::string lower = ToLower(name);
  if (StartsWith(lower, "ens_")) {
    SCHOLAR_ASSIGN_OR_RETURN(std::shared_ptr<const Ranker> base,
                             MakeRanker(lower.substr(4), config));
    EnsembleOptions o;
    o.num_slices =
        static_cast<int>(config.GetIntOr("num_slices", o.num_slices));
    const std::string partition = config.GetStringOr("partition", "count");
    if (partition == "span") {
      o.partition = PartitionStrategy::kEqualSpan;
    } else if (partition == "count") {
      o.partition = PartitionStrategy::kEqualCount;
    } else {
      return Status::InvalidArgument("unknown partition '" + partition + "'");
    }
    SCHOLAR_ASSIGN_OR_RETURN(
        o.normalizer, NormalizerKindFromString(
                          config.GetStringOr("normalizer", "percentile")));
    SCHOLAR_ASSIGN_OR_RETURN(
        o.scope, NormalizationScopeFromString(
                     config.GetStringOr("scope", "year")));
    SCHOLAR_ASSIGN_OR_RETURN(
        o.combiner,
        EnsembleCombinerFromString(config.GetStringOr("combiner", "mean")));
    o.gamma = config.GetDoubleOr("ens_gamma", o.gamma);
    o.window = static_cast<int>(config.GetIntOr("window", o.window));
    o.warm_start = config.GetBoolOr("warm_start", o.warm_start);
    o.threads = static_cast<int>(config.GetIntOr("threads", o.threads));
    return std::shared_ptr<const Ranker>(
        std::make_shared<EnsembleRanker>(std::move(base), o));
  }
  if (lower == "cc") {
    return std::shared_ptr<const Ranker>(
        std::make_shared<CitationCountRanker>());
  }
  if (lower == "age_cc") {
    return std::shared_ptr<const Ranker>(
        std::make_shared<AgeNormalizedCitationCountRanker>());
  }
  if (lower == "pagerank" || lower == "pr") {
    return std::shared_ptr<const Ranker>(
        std::make_shared<PageRankRanker>(PowerOptionsFromConfig(config)));
  }
  if (lower == "pagerank_mc") {
    MonteCarloOptions o;
    o.walks_per_node = static_cast<int>(
        config.GetIntOr("mc_walks", o.walks_per_node));
    o.damping = config.GetDoubleOr("damping", o.damping);
    o.seed = static_cast<uint64_t>(config.GetIntOr("mc_seed", 99));
    return std::shared_ptr<const Ranker>(
        std::make_shared<MonteCarloPageRankRanker>(o));
  }
  if (lower == "hits") {
    HitsOptions o;
    o.tolerance = config.GetDoubleOr("tolerance", o.tolerance);
    o.max_iterations = static_cast<int>(
        config.GetIntOr("max_iterations", o.max_iterations));
    o.threads = static_cast<int>(config.GetIntOr("threads", o.threads));
    return std::shared_ptr<const Ranker>(std::make_shared<HitsRanker>(o));
  }
  if (lower == "citerank") {
    CiteRankOptions o;
    o.tau = config.GetDoubleOr("tau", o.tau);
    o.power = PowerOptionsFromConfig(config);
    return std::shared_ptr<const Ranker>(std::make_shared<CiteRankRanker>(o));
  }
  if (lower == "futurerank") {
    FutureRankOptions o;
    o.alpha = config.GetDoubleOr("fr_alpha", o.alpha);
    o.beta = config.GetDoubleOr("fr_beta", o.beta);
    o.gamma = config.GetDoubleOr("fr_gamma", o.gamma);
    o.rho = config.GetDoubleOr("fr_rho", o.rho);
    o.tolerance = config.GetDoubleOr("tolerance", o.tolerance);
    o.max_iterations = static_cast<int>(
        config.GetIntOr("max_iterations", o.max_iterations));
    return std::shared_ptr<const Ranker>(
        std::make_shared<FutureRankRanker>(o));
  }
  if (lower == "katz") {
    KatzOptions o;
    o.alpha = config.GetDoubleOr("katz_alpha", o.alpha);
    o.tolerance = config.GetDoubleOr("tolerance", o.tolerance);
    o.max_iterations = static_cast<int>(
        config.GetIntOr("max_iterations", o.max_iterations));
    o.threads = static_cast<int>(config.GetIntOr("threads", o.threads));
    return std::shared_ptr<const Ranker>(std::make_shared<KatzRanker>(o));
  }
  if (lower == "sceas") {
    SceasOptions o;
    o.a = config.GetDoubleOr("sceas_a", o.a);
    o.b = config.GetDoubleOr("sceas_b", o.b);
    o.tolerance = config.GetDoubleOr("tolerance", o.tolerance);
    o.max_iterations = static_cast<int>(
        config.GetIntOr("max_iterations", o.max_iterations));
    o.threads = static_cast<int>(config.GetIntOr("threads", o.threads));
    return std::shared_ptr<const Ranker>(std::make_shared<SceasRanker>(o));
  }
  if (lower == "venuerank") {
    VenueRankOptions o;
    o.lambda = config.GetDoubleOr("vr_lambda", o.lambda);
    o.iterations = static_cast<int>(
        config.GetIntOr("vr_iterations", o.iterations));
    return std::shared_ptr<const Ranker>(
        std::make_shared<VenueRankRanker>(o));
  }
  if (lower == "twpr") {
    TwprOptions o;
    o.sigma = config.GetDoubleOr("sigma", o.sigma);
    o.recency_jump = config.GetBoolOr("recency_jump", o.recency_jump);
    o.rho = config.GetDoubleOr("rho", o.rho);
    o.power = PowerOptionsFromConfig(config);
    return std::shared_ptr<const Ranker>(
        std::make_shared<TimeWeightedPageRank>(o));
  }
  return Status::NotFound("unknown ranker '" + name + "'");
}

Result<std::shared_ptr<const Ranker>> MakeRanker(const std::string& name) {
  return MakeRanker(name, Config());
}

std::vector<std::string> KnownRankerNames() {
  return {"cc",       "age_cc",     "pagerank",   "pagerank_mc", "hits",
          "katz",     "sceas",      "venuerank",  "citerank",
          "futurerank", "twpr",     "ens_cc",     "ens_pagerank",
          "ens_twpr"};
}

}  // namespace scholar
