#include "rank/sceas.h"

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

/// Chunk size of the per-node loops; fixed so the chunked residual
/// reduction is thread-count independent.
constexpr size_t kNodeGrain = 2048;

}  // namespace

SceasRanker::SceasRanker(SceasOptions options) : options_(options) {}

Result<RankResult> SceasRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.a <= 1.0) {
    return Status::InvalidArgument(
        "a must be > 1 for the SceasRank iteration to contract, got " +
        std::to_string(options_.a));
  }
  if (options_.b < 0.0) {
    return Status::InvalidArgument("b must be >= 0");
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

  // s(v) = Σ_{u cites v} (s(u) + b) / (a · outdeg(u)), evaluated as a pull
  // over the in-CSR with the per-source share hoisted into share[] — no
  // write ever leaves v's slot.
  //
  // A warm-start seed replaces the zero start; with a > 1 the iteration
  // contracts to a unique fixed point, so the seed only affects the round
  // count. Seeds taken from a previous RankResult should be rescaled by
  // its score_mass to recover the iteration's natural magnitude.
  std::vector<double> scores(n, 0.0);
  if (ctx.initial_scores != nullptr && !ctx.initial_scores->empty()) {
    scores = *ctx.initial_scores;
  }
  std::vector<double> share(n);
  const size_t chunks = ChunkCount(n, kNodeGrain);
  std::vector<double> partial(chunks, 0.0);
  kernel::GatherEngine engine;
  SCHOLAR_RETURN_NOT_OK(
      engine.Init(g, kernel::GatherDirection::kInEdges, options_.kernel, pool));
  RankResult result;
  result.converged = false;
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        const size_t degree = g.OutDegree(u);
        share[u] = degree == 0
                       ? 0.0
                       : (scores[u] + options_.b) /
                             (options_.a * static_cast<double>(degree));
      }
    });
    const double* gathered = engine.Gather(share.data());
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double residual_part = 0.0;
      for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
        const double acc = gathered[v];
        residual_part += std::abs(acc - scores[v]);
        scores[v] = acc;
      }
      partial[chunk] = residual_part;
    });
    double residual = 0.0;
    for (size_t c = 0; c < chunks; ++c) residual += partial[c];
    result.iterations = iter;
    result.final_residual = residual;
    if (residual < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
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
