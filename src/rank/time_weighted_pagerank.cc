#include "rank/time_weighted_pagerank.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "graph/temporal_csr.h"
#include "util/logging.h"
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
  std::vector<double> weights(graph.num_edges());
  ParallelFor(pool, graph.num_nodes(), kNodeGrain,
              [&](size_t begin, size_t end) {
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      const Year tu = graph.year(u);
      const EdgeId first = graph.out_offsets()[u];
      const EdgeId last = graph.out_offsets()[u + 1];
      for (EdgeId e = first; e < last; ++e) {
        const Year tv = graph.year(graph.out_neighbors()[e]);
        const double gap = std::max<int64_t>(0, YearGap(tu, tv));
        weights[e] = std::exp(-sigma * gap);
      }
    }
  });
  return weights;
}

std::vector<double> TimeWeightedPageRank::ComputeInEdgeWeights(
    const CitationGraph& graph, double sigma, ThreadPool* pool) {
  std::vector<double> weights(graph.num_edges());
  ParallelFor(pool, graph.num_nodes(), kNodeGrain,
              [&](size_t begin, size_t end) {
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      const Year tv = graph.year(v);
      const EdgeId first = graph.in_offsets()[v];
      const EdgeId last = graph.in_offsets()[v + 1];
      for (EdgeId p = first; p < last; ++p) {
        const Year tu = graph.year(graph.in_neighbors()[p]);
        const double gap = std::max<int64_t>(0, YearGap(tu, tv));
        weights[p] = std::exp(-sigma * gap);
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

const TwprWeightCache::Weights& TwprWeightCache::GetOrCompute(
    const CitationGraph& graph, double sigma, ThreadPool* pool) {
  MutexLock lock(mu_);
  if (!ready_) {
    weights_.out_order =
        TimeWeightedPageRank::ComputeEdgeWeights(graph, sigma, pool);
    weights_.in_order =
        TimeWeightedPageRank::ComputeInEdgeWeights(graph, sigma, pool);
    graph_ = &graph;
    sigma_ = sigma;
    ready_ = true;
  } else {
    // One cache serves one (graph, sigma) pair.
    SCHOLAR_CHECK(graph_ == &graph && sigma_ == sigma);  // NOLINT(float-compare): callers pass the same double every call
  }
  return weights_;
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
  const PowerIterationOptions& power = options_.power;

  // The weight pipeline and the solver share one scratch (and therefore
  // one worker pool): either the caller's or a call-local one.
  PowerIterationScratch local_scratch;
  PowerIterationScratch* scratch =
      ctx.scratch != nullptr ? ctx.scratch : &local_scratch;
  ThreadPool* pool = scratch->PoolFor(ResolveThreads(power.threads));
  const std::vector<double> no_initial;
  const std::vector<double>& initial =
      ctx.initial_scores != nullptr ? *ctx.initial_scores : no_initial;

  if (ctx.view != nullptr) {
    const SnapshotView& view = *ctx.view;
    if (view.num_nodes() == 0) return RankResult{};
    // Decay weights depend only on year gaps, so the full-parent arrays are
    // valid for every snapshot: fetch them from the shared cache (computed
    // at most once per ensemble) or compute locally for a one-off call.
    TwprWeightCache local_cache;
    TwprWeightCache& cache =
        ctx.twpr_cache != nullptr ? *ctx.twpr_cache : local_cache;
    const TwprWeightCache::Weights& weights = cache.GetOrCompute(
        view.temporal_csr()->sorted_graph(), options_.sigma, pool);
    std::vector<double> jump;
    if (options_.recency_jump) {
      jump = ComputeRecencyJump(view.parent_years().data(), view.num_nodes(),
                                options_.rho, ctx.EffectiveNow(), pool);
    }
    return WeightedPowerIterationOnView(view, weights.out_order,
                                        weights.in_order, jump, power, initial,
                                        scratch);
  }

  const CitationGraph& g = *ctx.graph;
  std::vector<double> weights = ComputeEdgeWeights(g, options_.sigma, pool);
  std::vector<double> jump;
  if (options_.recency_jump && g.num_nodes() > 0) {
    jump = ComputeRecencyJump(g, options_.rho, ctx.EffectiveNow(), pool);
  }
  return WeightedPowerIteration(g, weights, jump, power, initial, scratch);
}

}  // namespace scholar
