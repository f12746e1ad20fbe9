#ifndef SCHOLARRANK_STREAM_FRONTIER_RANK_H_
#define SCHOLARRANK_STREAM_FRONTIER_RANK_H_

#include <vector>

#include "graph/graph_access.h"
#include "graph/types.h"
#include "rank/kernel/kernel_options.h"
#include "rank/ranker.h"
#include "util/status.h"

namespace scholar {
namespace stream {

struct FrontierOptions {
  double damping = 0.85;
  /// Global stop: L1 change summed over the active set.
  double tolerance = 1e-10;
  int max_iterations = 200;
  /// A node whose per-round score delta stays at or below this freezes
  /// (drops out of the active set) until a neighbor reactivates it. This
  /// is the staleness knob: 0 converges everything influence reaches
  /// (smallest drift, largest frontier); larger values shrink the frontier
  /// and admit proportionally more drift vs. the exact fixed point.
  double frontier_tolerance = 1e-12;
  /// 0 = hardware concurrency, 1 = serial. Scores are bit-identical at
  /// every setting (fixed chunk geometry, ordered reductions, serial
  /// frontier propagation).
  int threads = 0;
  /// Iteration-engine variant knobs (SIMD / precision); the
  /// engine's adaptive mode is always on here — it IS the frontier — with
  /// frontier_tolerance as its per-source freeze threshold, so the
  /// `adaptive`/`adaptive_tolerance` fields of this struct are ignored.
  kernel::KernelOptions kernel;
};

/// Active-set PageRank for streaming updates: power iteration over the
/// uniform-weight damped walk (the same system as the `pagerank` registry
/// kernel) that re-gathers only nodes whose inputs are still moving.
///
/// The active set lives in kernel::GatherEngine's adaptive mode (this
/// function is its streaming face): a source whose pull term moved by more
/// than frontier_tolerance since it was last observed wakes the rows it
/// feeds; every other row keeps its stored gather, and its score slot is
/// frozen bit-exactly. The other engine knobs (SIMD, precision) compose
/// with the frontier through options.kernel.
///
/// `seed` is the previous score vector extended to the grown graph (it is
/// L1-renormalized internally); `dirty` lists the nodes whose adjacency
/// the update touched — new articles plus the targets of new citations.
/// The first round re-gathers every node (a grown graph shifts the global
/// teleport term, an error no local delta can detect), then influence
/// spreads from still-moving sources along out-edges (a changed article
/// reweights the papers it cites). From round two on, each round costs
/// O(n + edges(awake)) instead of O(n + m).
///
/// Accuracy contract: a row freezes only while every source it pulls from
/// stays within frontier_tolerance of its last-gathered value, so a frozen
/// row's stored sum is stale by at most ~2 * frontier_tolerance * indegree
/// (plus the geometrically decaying teleport drift the final
/// renormalization mops up). The epoch tests bound the observed drift;
/// full-accuracy callers use mode=full (IncrementalRanker), which
/// re-gathers everything.
Result<RankResult> FrontierPowerIteration(const GraphAccess& g,
                                          const std::vector<double>& seed,
                                          const std::vector<NodeId>& dirty,
                                          const FrontierOptions& options);

}  // namespace stream
}  // namespace scholar

#endif  // SCHOLARRANK_STREAM_FRONTIER_RANK_H_
