#include "rank/futurerank.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace scholar {

FutureRankRanker::FutureRankRanker(FutureRankOptions options)
    : options_(options) {}

Result<RankResult> FutureRankRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/true));
  const FutureRankOptions& o = options_;
  if (o.alpha < 0 || o.beta < 0 || o.gamma < 0 ||
      o.alpha + o.beta + o.gamma > 1.0 + 1e-12) {
    return Status::InvalidArgument(
        "FutureRank weights must be non-negative with alpha+beta+gamma <= 1");
  }
  if (o.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  ViewRowEnds rows;
  const GraphAccess g = AccessOf(ctx, &rows);
  const PaperAuthors& pa = *ctx.authors;
  const size_t n = g.num_nodes;
  const size_t num_authors = pa.num_authors();
  if (n == 0) return RankResult{};

  const Year now = ctx.EffectiveNow();
  std::vector<double> time_term(n);
  double time_total = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    time_term[v] =
        std::exp(-o.rho * std::max<int64_t>(0, YearGap(now, g.years[v])));
    time_total += time_term[v];
  }
  for (double& t : time_term) t /= time_total;

  // The author map is indexed by parent id; an author's paper count covers
  // only the papers ranked here (on a full graph, PaperCount).
  std::vector<size_t> paper_count(num_authors, 0);
  for (NodeId p = 0; p < n; ++p) {
    for (AuthorId a : pa.AuthorsOf(ctx.ToParent(p))) ++paper_count[a];
  }

  const double base = (1.0 - o.alpha - o.beta - o.gamma) / n;
  std::vector<double> scores(n, 1.0 / n);
  std::vector<double> next(n);
  std::vector<double> author_scores(num_authors, 0.0);

  RankResult result;
  result.converged = false;
  for (int iter = 1; iter <= o.max_iterations; ++iter) {
    // Author pass: each paper splits its score equally among its authors.
    std::fill(author_scores.begin(), author_scores.end(), 0.0);
    for (NodeId p = 0; p < n; ++p) {
      auto authors = pa.AuthorsOf(ctx.ToParent(p));
      if (authors.empty()) continue;
      const double share = scores[p] / static_cast<double>(authors.size());
      for (AuthorId a : authors) author_scores[a] += share;
    }

    // Paper pass.
    std::fill(next.begin(), next.end(), 0.0);
    double dangling_mass = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      const size_t degree = g.OutDegree(u);
      if (degree == 0) {
        dangling_mass += scores[u];
        continue;
      }
      const double share = scores[u] / static_cast<double>(degree);
      for (EdgeId e = g.out_begin[u]; e < g.out_end[u]; ++e) {
        next[g.out_neighbors[e]] += share;
      }
    }
    // Dangling citation mass is spread uniformly so the structural part
    // remains stochastic.
    const double dangling_share = dangling_mass / static_cast<double>(n);

    double residual = 0.0;
    double sum = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      double author_part = 0.0;
      // paper_count[a] >= 1: it counts v itself.
      for (AuthorId a : pa.AuthorsOf(ctx.ToParent(v))) {
        author_part += author_scores[a] / static_cast<double>(paper_count[a]);
      }
      double nv = o.alpha * (next[v] + dangling_share) +
                  o.beta * author_part + o.gamma * time_term[v] + base;
      next[v] = nv;
      sum += nv;
    }
    // Renormalize (the author term is not exactly stochastic when papers
    // have no authors or author paper counts differ).
    for (NodeId v = 0; v < n; ++v) {
      next[v] /= sum;
      residual += std::abs(next[v] - scores[v]);
    }
    scores.swap(next);
    result.iterations = iter;
    result.final_residual = residual;
    if (residual < o.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.scores = std::move(scores);
  return result;
}

}  // namespace scholar
