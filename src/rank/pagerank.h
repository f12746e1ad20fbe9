#ifndef SCHOLARRANK_RANK_PAGERANK_H_
#define SCHOLARRANK_RANK_PAGERANK_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/graph_access.h"
#include "rank/kernel/gather_engine.h"
#include "rank/kernel/kernel_options.h"
#include "rank/ranker.h"
#include "util/thread_pool.h"

namespace scholar {

/// Shared knobs of all power-iteration rankers.
struct PowerIterationOptions {
  /// Probability of following a citation (1 - teleport probability).
  double damping = 0.85;
  /// Stop when the L1 change between successive score vectors drops below
  /// this.
  double tolerance = 1e-10;
  int max_iterations = 200;
  /// Worker threads for the pull-based iteration: 0 (default) = hardware
  /// concurrency, 1 = serial, N = exactly N. Scores are bit-identical at
  /// every setting (see the determinism note on WeightedPowerIteration).
  int threads = 0;
  /// Iteration-engine variant knobs (SIMD / precision / weight codebook /
  /// adaptive convergence); see rank/kernel/kernel_options.h.
  kernel::KernelOptions kernel;
};

/// Reusable solver state for WeightedPowerIteration: the O(n + m) work
/// buffers plus the lazily built worker pool. One Rank call needs one
/// scratch; the ensemble runs k snapshot ranks per call and shares a single
/// scratch across them, so the weight/score buffers, the gather engine and
/// the pool are allocated once instead of k times. Not thread-safe — never share one
/// scratch between concurrent solver calls.
class PowerIterationScratch {
 public:
  PowerIterationScratch() = default;

  /// Helper pool sized for `workers` total threads (the calling thread
  /// participates, so the pool holds workers - 1 helpers). Returns nullptr
  /// when workers <= 1 (serial). Rebuilt only when the size changes.
  ThreadPool* PoolFor(size_t workers);

  /// Buffers, exposed for the solver (and the TWPR weight pipeline).
  std::vector<double> in_weights;   // raw edge weights in in-edge order
  std::vector<double> row_weight;   // per-source *inverted* weighted degree
  std::vector<double> contrib;      // per-source gather term, per iteration
  std::vector<double> next;         // double buffer for the score vector
  std::vector<double> partial;      // ordered per-chunk reduction terms
  std::vector<uint8_t> dangling;    // 1 = weighted out-degree is zero
  std::vector<EdgeId> cursor;       // in-CSR fill cursor for the scatter
  ViewRowEnds view_rows;            // per-row prefix limits (view solver)
  kernel::GatherEngine engine;      // the iteration engine, re-Init per solve

 private:
  std::unique_ptr<ThreadPool> pool_;
  size_t pool_workers_ = 0;
};

/// Core solver shared by PageRank, TWPR and CiteRank.
///
/// Computes the stationary distribution of the damped random walk
///
///   s <- d * P^T s + (d * dangling_mass + (1 - d)) * jump
///
/// where row u of P distributes u's score over its references proportionally
/// to `edge_weights` (aligned with graph.out_neighbors(); pass empty for
/// uniform weights), and `jump` is a probability vector (pass empty for
/// uniform). A node whose weighted out-degree is zero is treated as
/// dangling: its entire score is redistributed through `jump`.
///
/// Parallel execution: the iteration is a pull-based gather over the
/// in-CSR, executed by the kernel::GatherEngine selected through
/// `options.kernel` (SIMD level, score precision, weight codebook,
/// adaptive convergence). Each round stages the per-source term
/// `contrib[u] = inv_row_weight[u] * scores[u]`, and node v sums
/// `w_in[p] * contrib[in_neighbor(p)]` over its own in-edges (raw weights
/// scattered once into in-edge order; no per-edge array at all for uniform
/// weights) — every write goes to v's slot only: no atomics, no
/// contention. Results are **bit-identical at any thread count**: each node
/// reduces its in-edges through the engine's fixed per-row addition tree,
/// and the dangling mass and L1 residual are per-chunk partial sums over a
/// thread-count-independent chunk geometry, combined in chunk-index order.
///
/// Errors: negative edge weights, wrong array sizes, or a `jump` that does
/// not sum to ~1.
///
/// `initial_scores` (optional, pass empty for the uniform default) seeds the
/// iteration — e.g. with the scores of a smaller snapshot of the same graph
/// — which reduces iteration counts without changing the fixed point. It is
/// L1-renormalized internally; non-positive-mass inputs fall back to
/// uniform.
///
/// `scratch` (optional) supplies reusable buffers and the worker pool; pass
/// one when calling the solver repeatedly (the ensemble does).
Result<RankResult> WeightedPowerIteration(
    const CitationGraph& graph, const std::vector<double>& edge_weights,
    const std::vector<double>& jump, const PowerIterationOptions& options,
    const std::vector<double>& initial_scores = {},
    PowerIterationScratch* scratch = nullptr);

/// WeightedPowerIteration on a zero-copy temporal snapshot.
///
/// Same fixed point and the same bit-exact arithmetic as running
/// WeightedPowerIteration on the materialized snapshot (ExtractSnapshot of
/// the view's sorted parent graph), with no per-snapshot O(m) state: both
/// paths stage `contrib[u] = inv_row[u] * scores[u]` and gather
/// `in_edge_weights[p] * contrib[source]` through the same engine
/// primitives — IEEE arithmetic is deterministic, so the per-row sums are
/// the very doubles the full-graph path computes. Only an O(V)
/// inverted-row-weight array and the O(V) row prefix limits are
/// per-snapshot; the weight arrays are shared, read-only,
/// full-parent-CSR-sized.
///
/// `out_edge_weights` / `in_edge_weights` are the same weights in out-edge
/// and in-edge order respectively, sized to the *parent* graph's edge count
/// (both empty = uniform). `jump` and `initial_scores` are view-sized
/// (view-local node ids).
Result<RankResult> WeightedPowerIterationOnView(
    const SnapshotView& view, const std::vector<double>& out_edge_weights,
    const std::vector<double>& in_edge_weights, const std::vector<double>& jump,
    const PowerIterationOptions& options,
    const std::vector<double>& initial_scores = {},
    PowerIterationScratch* scratch = nullptr);

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
