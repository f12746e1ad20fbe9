#ifndef SCHOLARRANK_CORE_REGISTRY_H_
#define SCHOLARRANK_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "rank/ranker.h"
#include "util/config.h"
#include "util/status.h"

namespace scholar {

/// Creates a ranker by name, parameterized from `config`. Known names:
///
///   cc, age_cc          — citation-count baselines (no parameters)
///   pagerank            — damping, tolerance, max_iterations
///   pagerank_mc         — Monte Carlo approximation; mc_walks, mc_seed,
///                         damping
///   hits                — tolerance, max_iterations
///   katz                — katz_alpha, tolerance, max_iterations
///   sceas               — sceas_a, sceas_b, tolerance, max_iterations
///   venuerank           — vr_lambda, vr_iterations (needs ctx.venues)
///   citerank            — tau, plus the pagerank keys
///   futurerank          — fr_alpha, fr_beta, fr_gamma, fr_rho,
///                         tolerance, max_iterations
///   twpr                — sigma, recency_jump, rho, plus pagerank keys
///   ens_<base>          — ensemble over any base above; keys: num_slices,
///                         partition (span|count), normalizer
///                         (max|sum|percentile|zscore), scope
///                         (year|cohort|snapshot), combiner (mean|recency),
///                         ens_gamma, window
///
/// Unknown names yield NotFound; malformed parameter values yield
/// InvalidArgument.
Result<std::shared_ptr<const Ranker>> MakeRanker(const std::string& name,
                                                 const Config& config);

/// Convenience: default-configured ranker.
Result<std::shared_ptr<const Ranker>> MakeRanker(const std::string& name);

/// All directly constructible ranker names (the ensemble variants listed
/// with the default bases).
std::vector<std::string> KnownRankerNames();

}  // namespace scholar

#endif  // SCHOLARRANK_CORE_REGISTRY_H_
