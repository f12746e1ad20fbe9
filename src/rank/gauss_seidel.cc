#include "rank/gauss_seidel.h"

#include <cmath>
#include <string>
#include <utility>

namespace scholar {
namespace {

/// The solver over GraphAccess, so a full graph and a snapshot view share
/// one body. Edge ids are the access's (parent) ids: `edge_weights`, when
/// set, is indexed by out-edge id.
Result<RankResult> GaussSeidelOnAccess(
    const GraphAccess& a, const std::vector<double>& edge_weights,
    const std::vector<double>& jump, const PowerIterationOptions& options,
    const std::vector<double>& initial_scores) {
  const size_t n = a.num_nodes;
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0,1)");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (!jump.empty()) {
    if (jump.size() != n) {
      return Status::InvalidArgument("jump size mismatch");
    }
    double sum = 0.0;
    for (double j : jump) {
      if (j < 0.0) return Status::InvalidArgument("negative jump probability");
      sum += j;
    }
    if (std::abs(sum - 1.0) > 1e-6) {
      return Status::InvalidArgument("jump vector must sum to 1");
    }
  }
  if (!initial_scores.empty() && initial_scores.size() != n) {
    return Status::InvalidArgument("initial_scores size mismatch");
  }
  if (n == 0) return RankResult{};

  // Transition probabilities on incoming edges: in_transition[e] belongs to
  // the in-CSR slot e of in_neighbors. Built with the same ascending-u scan
  // that FromCsr used, so slots line up. Rows end no later than the last
  // one, which bounds the slot ids.
  std::vector<double> in_transition(a.in_end[n - 1]);
  std::vector<bool> dangling(n, false);
  {
    std::vector<EdgeId> cursor(a.in_begin, a.in_begin + n);
    for (NodeId u = 0; u < n; ++u) {
      const EdgeId begin = a.out_begin[u];
      const EdgeId end = a.out_end[u];
      double row_sum = 0.0;
      for (EdgeId e = begin; e < end; ++e) {
        double w = edge_weights.empty() ? 1.0 : edge_weights[e];
        if (w < 0.0) return Status::InvalidArgument("negative edge weight");
        row_sum += w;
      }
      if (row_sum <= 0.0) {
        dangling[u] = true;
        // Slots still need filling to keep cursors aligned.
        for (EdgeId e = begin; e < end; ++e) {
          in_transition[cursor[a.out_neighbors[e]]++] = 0.0;
        }
        continue;
      }
      for (EdgeId e = begin; e < end; ++e) {
        double w = edge_weights.empty() ? 1.0 : edge_weights[e];
        in_transition[cursor[a.out_neighbors[e]]++] = w / row_sum;
      }
    }
  }

  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> scores(n, uniform);
  if (!initial_scores.empty()) {
    double total = 0.0;
    bool valid = true;
    for (double s : initial_scores) {
      if (s < 0.0) {
        valid = false;
        break;
      }
      total += s;
    }
    if (valid && total > 0.0) {
      for (NodeId v = 0; v < n; ++v) scores[v] = initial_scores[v] / total;
    }
  }

  RankResult result;
  result.converged = false;
  const double d = options.damping;
  for (int sweep = 1; sweep <= options.max_iterations; ++sweep) {
    // Lagged dangling mass (refreshed once per sweep).
    double dangling_mass = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (dangling[u]) dangling_mass += scores[u];
    }
    const double teleport = d * dangling_mass + (1.0 - d);
    double residual = 0.0;
    // Descending sweep: citers have larger ids than their references in
    // chronologically ordered citation graphs, so most reads hit values
    // already updated this sweep.
    for (NodeId v = n; v-- > 0;) {
      double incoming = 0.0;
      for (EdgeId e = a.in_begin[v]; e < a.in_end[v]; ++e) {
        incoming += scores[a.in_neighbors[e]] * in_transition[e];
      }
      const double jv = jump.empty() ? uniform : jump[v];
      const double updated = d * incoming + teleport * jv;
      residual += std::abs(updated - scores[v]);
      scores[v] = updated;
    }
    result.iterations = sweep;
    result.final_residual = residual;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  // In-sweep updates drift total mass slightly off 1; renormalize.
  double total = 0.0;
  for (double s : scores) total += s;
  if (total > 0.0) {
    for (double& s : scores) s /= total;
  }
  result.scores = std::move(scores);
  return result;
}

}  // namespace

Result<RankResult> GaussSeidelPageRank(
    const CitationGraph& graph, const std::vector<double>& edge_weights,
    const std::vector<double>& jump, const PowerIterationOptions& options,
    const std::vector<double>& initial_scores) {
  if (!edge_weights.empty() && edge_weights.size() != graph.num_edges()) {
    return Status::InvalidArgument("edge_weights size mismatch");
  }
  return GaussSeidelOnAccess(AccessOf(graph), edge_weights, jump, options,
                             initial_scores);
}

Result<RankResult> GaussSeidelPageRankRanker::RankImpl(
    const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  ViewRowEnds rows;
  const std::vector<double> no_initial;
  return GaussSeidelOnAccess(
      AccessOf(ctx, &rows), /*edge_weights=*/{}, /*jump=*/{}, options_,
      ctx.initial_scores != nullptr ? *ctx.initial_scores : no_initial);
}

}  // namespace scholar
