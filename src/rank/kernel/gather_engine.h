#ifndef SCHOLARRANK_RANK_KERNEL_GATHER_ENGINE_H_
#define SCHOLARRANK_RANK_KERNEL_GATHER_ENGINE_H_

/// GatherEngine — the memory-bandwidth-conscious inner loop of the kernels
/// that still sweep: Katz, SCEAS, both HITS orientations and the streaming
/// frontier ranker. (PageRank, TWPR and CiteRank solve in publication
/// order instead; see rank/pagerank.h.)
///
/// One sweep computes, for every row v of the chosen orientation,
///
///   gather[v] = sum over row edges p of  contrib[source(p)]
///
/// The engine owns the variant machinery behind that line:
///
///   simd             scalar striped / AVX2 (runtime-dispatched) / legacy
///   score_precision  double, or float mirrors with double accumulation
///   adaptive         per-source movement tracking that re-gathers only
///                    rows whose inputs moved since their last gather
///
/// Determinism contract: for a fixed variant, results are bit-identical at
/// every thread count (row-local writes, fixed chunk geometry), and scalar
/// and AVX2 are bit-identical within double precision (same per-row
/// addition tree). See tests/kernel_test.cc.
///
/// The engine borrows the GraphAccess arrays and the pool; both must
/// outlive it. Not thread-safe: one engine per concurrent solver call.

#include <cstdint>
#include <vector>

#include "graph/graph_access.h"
#include "rank/kernel/kernel_options.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace scholar {
namespace kernel {

/// Which adjacency orientation a sweep pulls over. kInEdges gathers into
/// each node from its citers (the PageRank/authority direction); kOutEdges
/// gathers from its references (the HITS hub direction).
enum class GatherDirection { kInEdges, kOutEdges };

/// KernelOptions after auto-resolution: `simd` is never kAuto.
struct ResolvedKernel {
  SimdMode simd = SimdMode::kScalar;
  ScorePrecision precision = ScorePrecision::kDouble;
  bool adaptive = false;
  double adaptive_tolerance = 0.0;
};

class GatherEngine {
 public:
  GatherEngine() = default;
  GatherEngine(const GatherEngine&) = delete;
  GatherEngine& operator=(const GatherEngine&) = delete;

  /// Prepares the engine for sweeps over `access` in `direction`.
  /// Re-initializable: buffers are reused across Init calls. Fails with
  /// InvalidArgument when simd=avx2 is requested on a host without AVX2.
  Status Init(const GraphAccess& access, GatherDirection direction,
              const KernelOptions& options, ThreadPool* pool);

  /// Runs one sweep and returns the per-row results (size num_nodes; owned
  /// by the engine, valid until the next Init). `contrib` is the per-source
  /// contribution array. In adaptive mode rows whose sources all stayed
  /// within adaptive_tolerance of their last-observed values keep their
  /// stored result; the first sweep after Init is always full.
  const double* Gather(const double* contrib);

  /// Per-row re-gather flags of the last sweep (size num_nodes; adaptive
  /// mode only, null otherwise). A 0 row kept its stored value — streaming
  /// callers use this to freeze the corresponding score slot exactly.
  const uint8_t* last_stale() const {
    return resolved_.adaptive ? stale_.data() : nullptr;
  }

  /// Rows actually re-gathered by the last sweep (== num_nodes unless
  /// adaptive skipped some).
  size_t last_rows_gathered() const { return last_rows_gathered_; }
  /// Totals across all sweeps since Init, for work-savings assertions.
  size_t total_rows_gathered() const { return total_rows_gathered_; }
  size_t sweeps() const { return sweeps_; }

  const ResolvedKernel& resolved() const { return resolved_; }

 private:
  /// Recomputes stale_ for this sweep from contrib-vs-base_ movement and
  /// refreshes base_. Returns the number of stale rows.
  size_t MarkStaleRows(const double* contrib);

  /// Runs the sweep with eval(idx, k) producing the value of the row whose
  /// k neighbors are idx[0 .. k).
  template <typename Eval>
  void SweepRows(const Eval& eval);

  /// Precision dispatch for one simd flavor (kSum/kSumF are that flavor's
  /// double and float row primitives).
  template <double (*kSum)(const double*, const NodeId*, size_t),
            double (*kSumF)(const float*, const NodeId*, size_t)>
  void RunVariant(const double* contrib_d);

  ResolvedKernel resolved_;
  ThreadPool* pool_ = nullptr;

  // Gather-orientation rows (borrowed from the GraphAccess).
  size_t num_rows_ = 0;
  const EdgeId* row_begin_ = nullptr;
  const EdgeId* row_end_ = nullptr;
  const NodeId* row_nbrs_ = nullptr;
  // Transpose rows, for waking the rows a moved source feeds (adaptive).
  const EdgeId* wake_begin_ = nullptr;
  const EdgeId* wake_end_ = nullptr;
  const NodeId* wake_nbrs_ = nullptr;

  std::vector<double> gather_;  // per-row results, persistent across sweeps

  std::vector<float> contrib_f32_;  // float mirror, refreshed per sweep

  // adaptive state.
  std::vector<double> base_;      // per-source last-observed contribution
  std::vector<uint8_t> moved_;    // per-source movement flag (scratch)
  std::vector<uint8_t> stale_;    // per-row re-gather flag for this sweep
  bool first_sweep_ = true;

  std::vector<size_t> chunk_rows_;  // per-chunk gathered-row counts
  size_t last_rows_gathered_ = 0;
  size_t total_rows_gathered_ = 0;
  size_t sweeps_ = 0;
};

}  // namespace kernel
}  // namespace scholar

#endif  // SCHOLARRANK_RANK_KERNEL_GATHER_ENGINE_H_
