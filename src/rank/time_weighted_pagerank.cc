#include "rank/time_weighted_pagerank.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "graph/temporal_csr.h"
#include "util/parallel_for.h"

namespace scholar {

namespace {

/// Chunk size of the per-node sweeps; fixed so chunked reductions are
/// thread-count independent (see util/parallel_for.h).
constexpr size_t kNodeGrain = 2048;

}  // namespace

TimeWeightedPageRank::TimeWeightedPageRank(TwprOptions options)
    : options_(options) {}

std::vector<double> TimeWeightedPageRank::ComputeEdgeWeights(
    const CitationGraph& graph, double sigma, ThreadPool* pool) {
  const YearGapWeights w(sigma, graph.years());
  std::vector<double> weights(graph.num_edges());
  ParallelFor(pool, graph.num_nodes(), kNodeGrain,
              [&](size_t begin, size_t end) {
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      for (EdgeId e = graph.out_offsets()[u]; e < graph.out_offsets()[u + 1];
           ++e) {
        weights[e] = w(graph.year(u), graph.year(graph.out_neighbors()[e]));
      }
    }
  });
  return weights;
}

std::vector<double> TimeWeightedPageRank::ComputeInEdgeWeights(
    const CitationGraph& graph, double sigma, ThreadPool* pool) {
  const YearGapWeights w(sigma, graph.years());
  std::vector<double> weights(graph.num_edges());
  ParallelFor(pool, graph.num_nodes(), kNodeGrain,
              [&](size_t begin, size_t end) {
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      for (EdgeId p = graph.in_offsets()[v]; p < graph.in_offsets()[v + 1];
           ++p) {
        weights[p] = w(graph.year(graph.in_neighbors()[p]), graph.year(v));
      }
    }
  });
  return weights;
}

std::vector<double> TimeWeightedPageRank::ComputeRecencyJump(
    const CitationGraph& graph, double rho, Year now, ThreadPool* pool) {
  return ComputeRecencyJump(graph.years().data(), graph.num_nodes(), rho, now,
                            pool);
}

std::vector<double> TimeWeightedPageRank::ComputeRecencyJump(
    const Year* years, size_t n, double rho, Year now, ThreadPool* pool) {
  std::vector<double> jump(n);
  const size_t chunks = ChunkCount(n, kNodeGrain);
  std::vector<double> partial(chunks, 0.0);
  ParallelForChunks(pool, n, kNodeGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    double part = 0.0;
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      const double age = std::max<int64_t>(0, YearGap(now, years[v]));
      jump[v] = std::exp(-rho * age);
      part += jump[v];
    }
    partial[chunk] = part;
  });
  double total = 0.0;
  for (size_t c = 0; c < chunks; ++c) total += partial[c];
  if (total > 0.0) {
    const double inv_total = 1.0 / total;
    ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
      for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
        jump[v] *= inv_total;
      }
    });
  }
  return jump;
}

Result<RankResult> TimeWeightedPageRank::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (options_.sigma < 0.0) {
    return Status::InvalidArgument("sigma must be >= 0, got " +
                                   std::to_string(options_.sigma));
  }
  if (options_.recency_jump && options_.rho < 0.0) {
    return Status::InvalidArgument("rho must be >= 0, got " +
                                   std::to_string(options_.rho));
  }
  // The jump and the solver share one scratch (and therefore one worker
  // pool): either the caller's or a call-local one.
  PowerIterationScratch local_scratch;
  PowerIterationScratch* scratch =
      ctx.scratch != nullptr ? ctx.scratch : &local_scratch;
  ThreadPool* pool = scratch->PoolFor(ResolveThreads(options_.power.threads));
  return RankInPublicationOrder(ctx, [&](const SnapshotView& view) {
    const YearGapWeights weights(options_.sigma,
                                 view.temporal_csr()->sorted_graph().years());
    std::vector<double> jump;
    if (options_.recency_jump) {
      jump = ComputeRecencyJump(view.parent_years().data(), view.num_nodes(),
                                options_.rho, ctx.EffectiveNow(), pool);
    }
    return SolveInPublicationOrder(view, &weights, jump, options_.power,
                                   scratch);
  });
}

}  // namespace scholar
