#ifndef SCHOLARRANK_RANK_KERNEL_GATHER_ENGINE_H_
#define SCHOLARRANK_RANK_KERNEL_GATHER_ENGINE_H_

/// GatherEngine — the memory-bandwidth-conscious inner loop shared by every
/// power-iteration kernel (PageRank/TWPR/CiteRank via the pagerank solver,
/// Katz, SCEAS, both HITS orientations, and the streaming frontier ranker).
///
/// One sweep computes, for every row v of the chosen orientation,
///
///   gather[v] = sum over row edges p of  w[p] * contrib[source(p)]
///
/// (or the unweighted sum when no weight array is given). The engine owns
/// the variant machinery behind that line:
///
///   simd             scalar striped / AVX2 (runtime-dispatched) / legacy
///   score_precision  double, or float mirrors with double accumulation
///   weight_codebook  1-byte-per-edge codes into an L1 table of the (at
///                    most 256) distinct weight values, built lazily per
///                    weight array; falls back to raw weights past 256
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
  bool weight_codebook = false;
  bool adaptive = false;
  double adaptive_tolerance = 0.0;
};

class GatherEngine {
 public:
  GatherEngine() = default;
  GatherEngine(const GatherEngine&) = delete;
  GatherEngine& operator=(const GatherEngine&) = delete;

  /// Prepares the engine for sweeps over `access` in `direction`.
  /// Re-initializable: buffers are reused across Init calls (the ensemble
  /// ranks many snapshots through one scratch-owned engine). Fails with
  /// InvalidArgument when simd=avx2 is requested on a host without AVX2.
  Status Init(const GraphAccess& access, GatherDirection direction,
              const KernelOptions& options, ThreadPool* pool);

  /// Runs one sweep and returns the per-row results (size num_nodes; owned
  /// by the engine, valid until the next Init). `contrib` is the per-source
  /// contribution array; `edge_weights` is indexed by this orientation's
  /// edge ids (null = unweighted). In adaptive mode rows whose sources all
  /// stayed within adaptive_tolerance of their last-observed values keep
  /// their stored result; the first sweep after Init is always full.
  ///
  /// Adaptive staleness contract: `edge_weights` must be the same array,
  /// with the same values, on every sweep of one Init lifetime (every
  /// caller's weights are per-solve constants).
  const double* Gather(const double* contrib, const double* edge_weights);

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
  /// Whether the last weight array seen fit the 256-entry codebook (false
  /// until a weighted sweep runs with weight_codebook=true).
  bool codebook_active() const { return codebook_active_; }
  /// Distinct weight values in the active codebook (0 when inactive).
  size_t codebook_entries() const {
    return codebook_active_ ? code_table_.size() : 0;
  }

 private:
  /// Recomputes stale_ for this sweep from contrib-vs-base_ movement and
  /// refreshes base_. Returns the number of stale rows.
  size_t MarkStaleRows(const double* contrib);

  /// Runs the sweep with eval(v, idx, k) producing row v's value.
  template <typename Eval>
  void SweepRows(const Eval& eval);

  /// Builds (or declines, past 256 distinct values) the byte-code /
  /// value-table pair for `edge_weights`; sets codebook_active_.
  void BuildWeightCodebook(const double* edge_weights);

  /// Precision dispatch for one simd flavor (the kSum/kDot/kDotC template
  /// arguments are that flavor's six row primitives).
  template <double (*kSum)(const double*, const NodeId*, size_t),
            double (*kDot)(const double*, const double*, const NodeId*,
                           size_t),
            double (*kSumF)(const float*, const NodeId*, size_t),
            double (*kDotF)(const float*, const float*, const NodeId*,
                            size_t),
            double (*kDotC)(const double*, const double*, const uint8_t*,
                            const NodeId*, size_t),
            double (*kDotCF)(const float*, const float*, const uint8_t*,
                             const NodeId*, size_t)>
  void RunVariant(const double* contrib_d, const double* w_d, bool use_codes);

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

  // float precision mirrors (contrib refreshed per sweep, weights once).
  std::vector<float> contrib_f32_;
  std::vector<float> weights_f32_;
  const double* weights_seen_ = nullptr;

  // weight_codebook: per-edge byte codes + the distinct-value tables they
  // index (double, plus the float mirror for float-precision sweeps).
  std::vector<uint8_t> weight_codes_;
  std::vector<double> code_table_;
  std::vector<float> code_table_f32_;
  const double* codes_built_for_ = nullptr;
  bool codebook_active_ = false;
  size_t edge_extent_ = 0;  // highest edge id any row reaches

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
