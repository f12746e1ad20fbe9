#ifndef SCHOLARRANK_TESTS_POWER_ITERATION_ORACLE_H_
#define SCHOLARRANK_TESTS_POWER_ITERATION_ORACLE_H_

// Reference oracle for the linear rankers (pagerank, twpr, citerank,
// katz, sceas): plain serial sweeps of each ranker's own formula over a
// full graph's out-CSR. It shares no code, and not the substitution that
// turns Katz and SCEAS into PageRank's system, with the publication-order
// solver in src/rank/pagerank.cc. bench/fig6_convergence and
// bench/rank_scaling use the same functions as the tests.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/citation_graph.h"
#include "rank/citerank.h"
#include "rank/katz.h"
#include "rank/ranker.h"
#include "rank/sceas.h"
#include "rank/time_weighted_pagerank.h"

namespace scholar {
namespace oracle {

/// Iterates s <- d * P^T s + (d * dangling_mass + (1 - d)) * jump from the
/// uniform vector until the L1 change drops below `tolerance` (or
/// `max_iterations` sweeps ran). Row u of P spreads u's score over its
/// references in proportion to `edge_weights` (aligned with
/// graph.out_neighbors(); empty = uniform); a row whose weights sum to zero
/// is dangling and its score goes to the jump. `jump` empty = uniform.
/// `residuals` (optional) receives the L1 change of every sweep.
inline RankResult PowerIteration(const CitationGraph& graph,
                                 const std::vector<double>& edge_weights,
                                 const std::vector<double>& jump,
                                 double damping, double tolerance,
                                 int max_iterations,
                                 std::vector<double>* residuals = nullptr) {
  const size_t n = graph.num_nodes();
  RankResult result;
  if (n == 0) return result;
  const std::vector<EdgeId>& offsets = graph.out_offsets();
  std::vector<double> row_sum(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
      row_sum[u] += edge_weights.empty() ? 1.0 : edge_weights[e];
    }
  }
  const double uniform = 1.0 / static_cast<double>(n);
  std::vector<double> scores(n, uniform);
  std::vector<double> next(n);
  result.converged = false;
  for (int iter = 1; iter <= max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling_mass = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (row_sum[u] <= 0.0) {
        dangling_mass += scores[u];
        continue;
      }
      for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e) {
        const double w = edge_weights.empty() ? 1.0 : edge_weights[e];
        next[graph.out_neighbors()[e]] += scores[u] * w / row_sum[u];
      }
    }
    const double teleport = damping * dangling_mass + (1.0 - damping);
    double residual = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      const double nv =
          damping * next[v] + teleport * (jump.empty() ? uniform : jump[v]);
      residual += std::abs(nv - scores[v]);
      next[v] = nv;
    }
    scores.swap(next);
    if (residuals != nullptr) residuals->push_back(residual);
    result.iterations = iter;
    result.final_residual = residual;
    if (residual < tolerance) {
      result.converged = true;
      break;
    }
  }
  result.scores = std::move(scores);
  return result;
}

/// Iterates s(v) <- sum over citers u of coefficient(u) * (s(u) + offset)
/// from zero until the L1 change drops below `tolerance` times the L1 mass
/// (or `max_iterations` sweeps ran), then L1-normalizes. Katz is
/// coefficient alpha and offset 1; SCEAS is 1 / (a * outdeg(u)) and b.
/// Rows without references push nothing.
inline RankResult AffineSweep(const CitationGraph& graph, bool per_reference,
                              double factor, double offset, double tolerance,
                              int max_iterations) {
  const size_t n = graph.num_nodes();
  RankResult result;
  std::vector<double> scores(n, 0.0);
  std::vector<double> next(n);
  result.converged = false;
  for (int iter = 1; iter <= max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (NodeId u = 0; u < n; ++u) {
      const size_t degree = graph.OutDegree(u);
      if (degree == 0) continue;
      const double coefficient =
          per_reference ? factor : factor / static_cast<double>(degree);
      for (NodeId v : graph.References(u)) {
        next[v] += coefficient * (scores[u] + offset);
      }
    }
    double residual = 0.0;
    double mass = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      residual += std::abs(next[v] - scores[v]);
      mass += next[v];
    }
    scores.swap(next);
    result.iterations = iter;
    result.final_residual = residual;
    if (residual <= tolerance * mass) {
      result.converged = true;
      break;
    }
  }
  double total = 0.0;
  for (double s : scores) total += s;
  if (total > 0.0) {
    for (double& s : scores) s /= total;
  }
  result.scores = std::move(scores);
  return result;
}

/// TWPR's edge weights exp(-sigma * max(0, t(u) - t(v))), computed per edge.
inline std::vector<double> TwprWeights(const CitationGraph& graph,
                                       double sigma) {
  std::vector<double> w;
  w.reserve(graph.num_edges());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (NodeId v : graph.References(u)) {
      const int64_t gap =
          std::max<int64_t>(0, YearGap(graph.year(u), graph.year(v)));
      w.push_back(std::exp(-sigma * static_cast<double>(gap)));
    }
  }
  return w;
}

/// Jump vector proportional to exp(-rate * max(0, now - t(v))): TWPR's
/// recency jump at rate rho, CiteRank's restart at rate 1 / tau.
inline std::vector<double> RecencyJump(const CitationGraph& graph,
                                       double rate, Year now) {
  std::vector<double> jump(graph.num_nodes());
  double total = 0.0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const int64_t age = std::max<int64_t>(0, YearGap(now, graph.year(v)));
    jump[v] = std::exp(-rate * static_cast<double>(age));
    total += jump[v];
  }
  for (double& j : jump) j /= total;
  return jump;
}

/// The oracle scores of a registry base ranker with its default parameters
/// (read from TwprOptions, CiteRankOptions, KatzOptions and SceasOptions):
/// "pagerank", "twpr", "twpr_recency" (twpr with recency_jump=true),
/// "citerank", "katz" or "sceas". `now` defaults to the graph's max_year().
inline RankResult RankLinear(const std::string& base, const CitationGraph& g,
                             double tolerance = 1e-15,
                             int max_iterations = 5000,
                             Year now = kUnknownYear) {
  if (now == kUnknownYear) now = g.max_year();
  const TwprOptions twpr;
  const double damping = twpr.power.damping;
  if (base == "twpr") {
    return PowerIteration(g, TwprWeights(g, twpr.sigma), {}, damping,
                          tolerance, max_iterations);
  }
  if (base == "twpr_recency") {
    return PowerIteration(g, TwprWeights(g, twpr.sigma),
                          RecencyJump(g, twpr.rho, now), damping, tolerance,
                          max_iterations);
  }
  if (base == "katz") {
    return AffineSweep(g, /*per_reference=*/true, KatzOptions().alpha, 1.0,
                       tolerance, max_iterations);
  }
  if (base == "sceas") {
    const SceasOptions sceas;
    return AffineSweep(g, /*per_reference=*/false, 1.0 / sceas.a, sceas.b,
                       tolerance, max_iterations);
  }
  if (base == "citerank") {
    const double rate = 1.0 / CiteRankOptions().tau;
    return PowerIteration(g, {}, RecencyJump(g, rate, now), damping,
                          tolerance, max_iterations);
  }
  return PowerIteration(g, {}, {}, damping, tolerance, max_iterations);
}

inline double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    sum += std::abs(a[i] - b[i]);
  }
  return a.size() == b.size() ? sum : INFINITY;
}

}  // namespace oracle
}  // namespace scholar

#endif  // SCHOLARRANK_TESTS_POWER_ITERATION_ORACLE_H_
