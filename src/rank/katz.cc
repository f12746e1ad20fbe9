#include "rank/katz.h"

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_access.h"
#include "rank/kernel/gather_engine.h"
#include "util/parallel_for.h"

namespace scholar {
namespace {

/// Chunk size of the per-node loops; fixed so the chunked residual/mass
/// reductions are thread-count independent.
constexpr size_t kNodeGrain = 2048;

}  // namespace

KatzRanker::KatzRanker(KatzOptions options) : options_(options) {}

Result<RankResult> KatzRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.alpha <= 0.0 || options_.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1), got " +
                                   std::to_string(options_.alpha));
  }
  if (options_.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  const size_t n = ctx.NumNodes();
  if (n == 0) return RankResult{};

  const size_t workers = ResolveThreads(options_.threads);
  std::unique_ptr<ThreadPool> owned_pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers - 1) : nullptr;
  ThreadPool* pool = owned_pool.get();
  ViewRowEnds rows;
  const GraphAccess g = AccessOf(ctx, &rows, pool);

  // s <- alpha * A^T (s + 1), evaluated as a pull: v gathers
  // alpha * (s(u) + 1) over its citers u, so no write ever leaves v's slot.
  // contribution[] hoists the per-source term out of the gather.
  //
  // A warm-start seed replaces the zero start; the iteration is a
  // contraction with a unique fixed point, so the seed never changes the
  // answer, only the number of rounds needed to reach it. Callers seeding
  // from a previous RankResult should rescale by its score_mass — the
  // fixed point is not a distribution, and a unit-mass seed is far from it.
  std::vector<double> scores(n, 0.0);
  if (ctx.initial_scores != nullptr && !ctx.initial_scores->empty()) {
    scores = *ctx.initial_scores;
  }
  std::vector<double> contribution(n);
  const size_t chunks = ChunkCount(n, kNodeGrain);
  std::vector<double> partial_residual(chunks, 0.0);
  std::vector<double> partial_mass(chunks, 0.0);
  kernel::GatherEngine engine;
  SCHOLAR_RETURN_NOT_OK(
      engine.Init(g, kernel::GatherDirection::kInEdges, options_.kernel, pool));
  RankResult result;
  result.converged = false;
  // Divergence guard: if the total mass exceeds this, alpha is beyond the
  // spectral radius and the series cannot converge.
  const double mass_limit = 1e12 * static_cast<double>(n);
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        contribution[u] = options_.alpha * (scores[u] + 1.0);
      }
    });
    const double* gathered = engine.Gather(contribution.data());
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double residual_part = 0.0;
      double mass_part = 0.0;
      for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
        const double acc = gathered[v];
        residual_part += std::abs(acc - scores[v]);
        mass_part += acc;
        scores[v] = acc;
      }
      partial_residual[chunk] = residual_part;
      partial_mass[chunk] = mass_part;
    });
    double residual = 0.0;
    double mass = 0.0;
    for (size_t c = 0; c < chunks; ++c) {
      residual += partial_residual[c];
      mass += partial_mass[c];
    }
    result.iterations = iter;
    result.final_residual = residual;
    if (mass > mass_limit) {
      return Status::FailedPrecondition(
          "Katz diverged: alpha=" + std::to_string(options_.alpha) +
          " exceeds 1/lambda_max of this citation network");
    }
    if (residual < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
  // L1-normalize so scores are comparable across graphs; the pre-division
  // mass is reported so warm-start callers can undo the normalization.
  double total = 0.0;
  for (double v : scores) total += v;
  if (total > 0.0) {
    for (double& v : scores) v /= total;
    result.score_mass = total;
  }
  result.scores = std::move(scores);
  return result;
}

}  // namespace scholar
