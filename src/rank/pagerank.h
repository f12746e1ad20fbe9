#ifndef SCHOLARRANK_RANK_PAGERANK_H_
#define SCHOLARRANK_RANK_PAGERANK_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/types.h"
#include "rank/ranker.h"
#include "util/thread_pool.h"

namespace scholar {

/// Shared knobs of the linear rankers (PageRank, TWPR, CiteRank).
struct PowerIterationOptions {
  /// Probability of following a citation (1 - teleport probability).
  double damping = 0.85;
  /// Only consulted when a kept reference points to a newer article (see
  /// SolveInPublicationOrder): passes then repeat until the L1 change of
  /// the scores drops below this.
  double tolerance = 1e-10;
  /// Cap on those passes.
  int max_iterations = 200;
  /// Worker threads for the per-row weights and the jump vectors: 0
  /// (default) = hardware concurrency, 1 = serial, N = exactly N. The pass
  /// itself is serial, so scores are bit-identical at every setting.
  int threads = 0;
};

/// TWPR's citation weight w(u, v) = exp(-sigma * max(0, YearGap(t(u), t(v)))),
/// read from a table indexed by year gap. The table spans the known years
/// (at most 1024 of them); larger gaps, such as those to an article of
/// unknown year, call exp directly. Every value equals the direct exp.
class YearGapWeights {
 public:
  /// Table over the gaps 0 .. max - min of the known years in `years`
  /// (kUnknownYear entries skipped), capped at 1024.
  YearGapWeights(double sigma, const std::vector<Year>& years);

  double operator()(Year citer, Year cited) const {
    const int64_t gap = std::max<int64_t>(0, YearGap(citer, cited));
    return gap < static_cast<int64_t>(table_.size())
               ? table_[static_cast<size_t>(gap)]
               : std::exp(-sigma_ * static_cast<double>(gap));
  }

 private:
  double sigma_;
  std::vector<double> table_;
};

/// Reusable solver state: the per-row buffers plus the lazily built worker
/// pool. The ensemble ranks k snapshots per call and shares one scratch
/// across them, so the buffers and the pool are allocated once instead of k
/// times. Not thread-safe — never share one scratch between concurrent
/// solver calls.
class PowerIterationScratch {
 public:
  PowerIterationScratch() = default;

  /// Helper pool sized for `workers` total threads (the calling thread
  /// participates, so the pool holds workers - 1 helpers). Returns nullptr
  /// when workers <= 1 (serial). Rebuilt only when the size changes.
  ThreadPool* PoolFor(size_t workers);

  std::vector<EdgeId> row_end;    // end of each row's kept prefix
  std::vector<double> row_scale;  // damping / kept row weight; 0 = dangling
  std::vector<double> acc;        // mass pushed to each row, not yet taken
  std::vector<double> previous;   // last pass's scores (repeated passes)
  std::vector<size_t> partial;    // per-chunk upward-reference counts

 private:
  std::unique_ptr<ThreadPool> pool_;
  size_t pool_workers_ = 0;
};

/// The solver of PageRank, TWPR and CiteRank.
///
/// Computes, on a snapshot view, the stationary distribution of the damped
/// random walk
///
///   s = d * P^T s + (d * dangling_mass + (1 - d)) * jump
///
/// where row u of P spreads u's score over its kept references in
/// proportion to `weights` (null = uniform), and a row whose weights sum to
/// zero is dangling. That s is y / sum(y) for y = jump + d * P^T y with the
/// dangling rows left empty, and in the publication order of TemporalCsr
/// the system is triangular: one pass u = n-1 ... 0 sets y[u] = jump[u] +
/// acc[u], then adds d * w(u,v) * y[u] / row_weight(u) into acc[v] for each
/// kept reference v of u. The scores are y / sum(y), so they sum to 1.
///
/// A reference to a larger sorted id (a same-year cycle, a backward
/// citation, an unknown-year citer) reaches acc[v] after v was set; its mass
/// waits there for the next pass, which makes repeated passes Gauss–Seidel
/// sweeps. When the view keeps such references, passes repeat until the L1
/// change of the normalized scores drops below `options.tolerance`, capped
/// at `options.max_iterations`. `iterations` counts passes (1 on clean
/// corpora) and `converged` says whether the tolerance was met.
///
/// Row weights are taken over the view's kept row prefix, because a
/// backward citation makes a row depend on the snapshot; they are computed
/// per row on `options.threads` workers. The pass is serial. So scores are
/// bit-identical at every thread count, and a view scores bitwise like its
/// materialized snapshot (whose own TemporalCsr is the identity).
///
/// `jump` is view-sized and sums to 1 (empty = uniform). Errors: damping
/// outside [0, 1), non-positive max_iterations, a wrongly sized, negative
/// or unnormalized jump. `scratch` (optional) supplies reusable buffers and
/// the worker pool.
Result<RankResult> SolveInPublicationOrder(const SnapshotView& view,
                                           const YearGapWeights* weights,
                                           const std::vector<double>& jump,
                                           const PowerIterationOptions& options,
                                           PowerIterationScratch* scratch =
                                               nullptr);

/// Runs `solve` on ctx.view, or on the full view of a TemporalCsr over
/// ctx.graph with the scores mapped back to graph ids. So a full-graph rank
/// and the rank of its view share one code path. An empty graph or view
/// ranks to empty scores without calling `solve`.
Result<RankResult> RankInPublicationOrder(
    const RankContext& ctx,
    const std::function<Result<RankResult>(const SnapshotView&)>& solve);

/// Pads a score vector from a smaller prefix-snapshot of a graph up to
/// `new_num_nodes` (new articles get the mean existing score) — the warm
/// start for incremental re-ranking after a corpus grows. Returns a uniform
/// vector when `old_scores` is empty or has non-positive mass.
std::vector<double> ExtendScoresForGrownGraph(
    const std::vector<double>& old_scores, size_t new_num_nodes);

/// Classic PageRank on the citation network (score flows from a paper to its
/// references). The canonical structural baseline in the paper.
class PageRankRanker : public Ranker {
 public:
  explicit PageRankRanker(PowerIterationOptions options = {})
      : options_(options) {}

  std::string name() const override { return "pagerank"; }
  Result<RankResult> RankImpl(const RankContext& ctx) const override;

  const PowerIterationOptions& options() const { return options_; }

 private:
  PowerIterationOptions options_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_RANK_PAGERANK_H_
