#include "rank/hits.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel_for.h"

namespace scholar {
namespace {

/// Chunk size of the per-node gather loops; fixed so the chunked norm and
/// residual reductions are thread-count independent.
constexpr size_t kNodeGrain = 2048;

/// Sums partial[0..chunks) in index order.
double OrderedSum(const std::vector<double>& partial, size_t chunks) {
  double total = 0.0;
  for (size_t c = 0; c < chunks; ++c) total += partial[c];
  return total;
}

/// dst[v] = sum of src over row v's neighbors, added in row order. Each row
/// writes only its own slot and the chunks are fixed, so the result is
/// bit-identical at every thread count.
void Gather(const EdgeId* begin, const EdgeId* end, const NodeId* nbrs,
            const std::vector<double>& src, std::vector<double>* dst,
            ThreadPool* pool) {
  ParallelFor(pool, dst->size(), kNodeGrain, [&](size_t lo, size_t hi) {
    for (size_t v = lo; v < hi; ++v) {
      double sum = 0.0;
      for (EdgeId p = begin[v]; p < end[v]; ++p) sum += src[nbrs[p]];
      (*dst)[v] = sum;
    }
  });
}

/// L2-normalizes in place (parallel, deterministic); returns the norm
/// before normalization.
double NormalizeL2(std::vector<double>* v, ThreadPool* pool,
                   std::vector<double>* partial) {
  const size_t n = v->size();
  const size_t chunks = ChunkCount(n, kNodeGrain);
  ParallelForChunks(pool, n, kNodeGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    double sq = 0.0;
    for (size_t i = begin; i < end; ++i) sq += (*v)[i] * (*v)[i];
    (*partial)[chunk] = sq;
  });
  const double norm = std::sqrt(OrderedSum(*partial, chunks));
  if (norm > 0.0) {
    const double inv = 1.0 / norm;
    ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) (*v)[i] *= inv;
    });
  }
  return norm;
}

}  // namespace

HitsRanker::HitsRanker(HitsOptions options) : options_(options) {}

Result<HitsRanker::HubsAndAuthorities> HitsRanker::RankBoth(
    const CitationGraph& g) const {
  return RankBothOnAccess(AccessOf(g), ResolveThreads(options_.threads));
}

Result<HitsRanker::HubsAndAuthorities> HitsRanker::RankBothOnAccess(
    const GraphAccess& g, size_t workers,
    const std::vector<double>* initial_authorities) const {
  if (options_.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  const size_t n = g.num_nodes;
  HubsAndAuthorities out;
  out.authorities.assign(n, n > 0 ? 1.0 / std::sqrt(static_cast<double>(n))
                                  : 0.0);
  out.hubs = out.authorities;
  if (n == 0) return out;

  std::unique_ptr<ThreadPool> owned_pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers - 1) : nullptr;
  ThreadPool* pool = owned_pool.get();

  const size_t chunks = ChunkCount(n, kNodeGrain);
  std::vector<double> partial(chunks, 0.0);

  // Authority(v) = sum of hub(u) over citers u, a pull over the in-CSR;
  // hub(u) = sum of authority(v) over references v, a pull over the
  // out-CSR.
  const auto gather_authorities = [&] {
    Gather(g.in_begin, g.in_end, g.in_neighbors, out.hubs, &out.authorities,
           pool);
  };
  const auto gather_hubs = [&] {
    Gather(g.out_begin, g.out_end, g.out_neighbors, out.authorities,
           &out.hubs, pool);
  };

  if (initial_authorities != nullptr && initial_authorities->size() == n) {
    // Warm start: begin the alternation at the previous authorities and a
    // hub vector gathered from them, instead of the uniform direction. The
    // power method still converges to the principal eigenvector — a seed
    // only shortens the walk there (unless it is degenerate, in which case
    // NormalizeL2 leaves the uniform fallback in place).
    std::vector<double> seed = *initial_authorities;
    if (NormalizeL2(&seed, pool, &partial) > 0.0) {
      out.authorities = std::move(seed);
      gather_hubs();
      if (NormalizeL2(&out.hubs, pool, &partial) == 0.0) {  // NOLINT(float-compare): a zero norm is returned exactly, never approximately
        out.hubs.assign(n, 1.0 / std::sqrt(static_cast<double>(n)));
      }
    }
  }
  std::vector<double> prev_auth(n);
  out.converged = false;
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    prev_auth = out.authorities;
    gather_authorities();
    NormalizeL2(&out.authorities, pool, &partial);
    gather_hubs();
    NormalizeL2(&out.hubs, pool, &partial);

    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double part = 0.0;
      for (size_t v = begin; v < end; ++v) {
        part += std::abs(out.authorities[v] - prev_auth[v]);
      }
      partial[chunk] = part;
    });
    const double residual = OrderedSum(partial, chunks);
    out.iterations = iter;
    if (residual < options_.tolerance) {
      out.converged = true;
      break;
    }
  }
  return out;
}

Result<RankResult> HitsRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  const size_t workers = ResolveThreads(options_.threads);
  ViewRowEnds rows;
  SCHOLAR_ASSIGN_OR_RETURN(
      HubsAndAuthorities both,
      RankBothOnAccess(AccessOf(ctx, &rows), workers, ctx.initial_scores));
  RankResult result;
  result.scores = std::move(both.authorities);
  result.iterations = both.iterations;
  result.converged = both.converged;
  return result;
}

}  // namespace scholar
