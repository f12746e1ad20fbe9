#include "stream/frontier_rank.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "rank/kernel/gather_engine.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace scholar {
namespace stream {
namespace {

/// Same fixed chunk geometry as the rank kernels: reductions are per-chunk
/// partial sums combined in chunk order, so results are independent of the
/// thread count.
constexpr size_t kNodeGrain = 2048;

double OrderedSum(const std::vector<double>& partial, size_t chunks) {
  double total = 0.0;
  for (size_t c = 0; c < chunks; ++c) total += partial[c];
  return total;
}

}  // namespace

Result<RankResult> FrontierPowerIteration(const GraphAccess& g,
                                          const std::vector<double>& seed,
                                          const std::vector<NodeId>& dirty,
                                          const FrontierOptions& options) {
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (options.frontier_tolerance < 0.0) {
    return Status::InvalidArgument("frontier_tolerance must be >= 0");
  }
  const size_t n = g.num_nodes;
  if (seed.size() != n) {
    return Status::InvalidArgument(
        "seed size " + std::to_string(seed.size()) +
        " does not match the graph (" + std::to_string(n) + " nodes)");
  }
  if (n == 0) return RankResult{};
  for (NodeId v : dirty) {
    if (v >= n) {
      return Status::InvalidArgument("dirty node " + std::to_string(v) +
                                     " out of range");
    }
  }

  const size_t workers = ResolveThreads(options.threads);
  std::unique_ptr<ThreadPool> owned_pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers - 1) : nullptr;
  ThreadPool* pool = owned_pool.get();
  const size_t chunks = ChunkCount(n, kNodeGrain);

  // Normalize the seed to a distribution; fall back to uniform on
  // degenerate input, mirroring the full solver's BuildInitialScores.
  std::vector<double> scores = seed;
  {
    std::vector<double> partial(chunks, 0.0);
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double mass = 0.0;
      for (size_t i = begin; i < end; ++i) mass += scores[i];
      partial[chunk] = mass;
    });
    const double mass = OrderedSum(partial, chunks);
    if (mass > 0.0 && std::isfinite(mass)) {
      const double inv = 1.0 / mass;
      ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) scores[i] *= inv;
      });
    } else {
      scores.assign(n, 1.0 / static_cast<double>(n));
    }
  }

  // share[u] = scores[u] / outdeg(u): the per-source pull term. Refreshed
  // for every node each round (O(n)); a frozen node's score is bit-frozen,
  // so its share is too, and the engine's movement tracking sees exactly
  // the nodes whose scores changed.
  std::vector<double> share(n);
  const auto refresh_share = [&] {
    ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        const size_t degree = g.OutDegree(u);
        share[u] = degree == 0
                       ? 0.0
                       : scores[u] / static_cast<double>(degree);
      }
    });
  };

  // The active set is the engine's adaptive mode with frontier_tolerance
  // as the per-source freeze threshold. Its first sweep is always full —
  // required here because a grown graph shifts the teleport term for EVERY
  // node (n and the dangling mass both changed), an error no local delta
  // can detect.
  kernel::KernelOptions kopts = options.kernel;
  kopts.adaptive = true;
  kopts.adaptive_tolerance = options.frontier_tolerance;
  kernel::GatherEngine engine;
  SCHOLAR_RETURN_NOT_OK(
      engine.Init(g, kernel::GatherDirection::kInEdges, kopts, pool));

  std::vector<double> partial(chunks, 0.0);
  RankResult result;
  result.converged = false;
  const double d = options.damping;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Dangling mass is global state (a dangling article teleports its whole
    // score), so it is re-summed exactly every round — O(n), no gather.
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double mass = 0.0;
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        if (g.OutDegree(u) == 0) mass += scores[u];
      }
      partial[chunk] = mass;
    });
    const double dangling = OrderedSum(partial, chunks);
    const double teleport =
        (d * dangling + (1.0 - d)) / static_cast<double>(n);

    // Gather over the awake rows only (the engine re-gathers exactly the
    // rows some moved source feeds and returns its persistent buffer).
    refresh_share();
    const double* gathered = engine.Gather(share.data());
    const uint8_t* stale = engine.last_stale();

    // Commit the re-gathered slots; frozen rows keep their score
    // bit-exactly (their stale teleport is the drift the final
    // renormalization mops up). Residual is summed over the awake set, as
    // ordered per-chunk partials.
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double residual_part = 0.0;
      for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
        if (!stale[v]) continue;
        const double value = teleport + d * gathered[v];
        residual_part += std::abs(value - scores[v]);
        scores[v] = value;
      }
      partial[chunk] = residual_part;
    });
    const double residual = OrderedSum(partial, chunks);

    result.iterations = iter;
    result.final_residual = residual;
    if (residual < options.tolerance || engine.last_rows_gathered() == 0) {
      result.converged = true;
      break;
    }
  }

  // Renormalize: frozen nodes kept slightly stale teleport terms, so the
  // vector's mass has drifted from 1 by (bounded) crumbs; project back
  // onto the simplex before returning.
  {
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double mass = 0.0;
      for (size_t i = begin; i < end; ++i) mass += scores[i];
      partial[chunk] = mass;
    });
    const double mass = OrderedSum(partial, chunks);
    if (mass > 0.0) {
      const double inv = 1.0 / mass;
      ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) scores[i] *= inv;
      });
    }
  }
  result.scores = std::move(scores);
  return result;
}

}  // namespace stream
}  // namespace scholar
