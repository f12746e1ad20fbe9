#include "rank/kernel/gather_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "rank/kernel/simd.h"
#include "util/parallel_for.h"

namespace scholar {
namespace kernel {

namespace {

/// Same fixed chunk geometry as every rank kernel: chunk boundaries depend
/// on (n, grain) only, so per-chunk bookkeeping is thread-count
/// independent.
constexpr size_t kRowGrain = 2048;

/// When more than this fraction of sources moved, skip the wake scatter
/// and re-gather everything — marking a superset stale is always correct,
/// and a near-full frontier makes the transpose walk pure overhead.
constexpr size_t kFullSweepDenominator = 4;

}  // namespace

Status GatherEngine::Init(const GraphAccess& access, GatherDirection direction,
                          const KernelOptions& options, ThreadPool* pool) {
  ResolvedKernel rk;
  rk.precision = options.precision;
  rk.weight_codebook = options.weight_codebook;
  rk.adaptive = options.adaptive;
  rk.adaptive_tolerance = options.adaptive_tolerance;
  switch (options.simd) {
    case SimdMode::kAuto:
      rk.simd = DetectSimdLevel() == SimdLevel::kAvx2 ? SimdMode::kAvx2
                                                      : SimdMode::kScalar;
      break;
    case SimdMode::kAvx2:
      if (DetectSimdLevel() != SimdLevel::kAvx2) {
        return Status::InvalidArgument(
            "simd=avx2 requested but this host cannot execute AVX2 "
            "(use simd=auto for runtime dispatch)");
      }
      rk.simd = SimdMode::kAvx2;
      break;
    case SimdMode::kScalar:
      rk.simd = SimdMode::kScalar;
      break;
    case SimdMode::kLegacy:
      rk.simd = SimdMode::kLegacy;
      break;
  }
  if (!(rk.adaptive_tolerance >= 0.0)) {
    return Status::InvalidArgument("adaptive_tolerance must be >= 0");
  }
  resolved_ = rk;
  pool_ = pool;
  num_rows_ = access.num_nodes;
  if (direction == GatherDirection::kInEdges) {
    row_begin_ = access.in_begin;
    row_end_ = access.in_end;
    row_nbrs_ = access.in_neighbors;
    wake_begin_ = access.out_begin;
    wake_end_ = access.out_end;
    wake_nbrs_ = access.out_neighbors;
  } else {
    row_begin_ = access.out_begin;
    row_end_ = access.out_end;
    row_nbrs_ = access.out_neighbors;
    wake_begin_ = access.in_begin;
    wake_end_ = access.in_end;
    wake_nbrs_ = access.in_neighbors;
  }

  gather_.resize(num_rows_);
  first_sweep_ = true;
  weights_seen_ = nullptr;
  codes_built_for_ = nullptr;
  codebook_active_ = false;
  sweeps_ = 0;
  last_rows_gathered_ = 0;
  total_rows_gathered_ = 0;

  // Highest edge id any row reaches. For a full graph this is num_edges;
  // for a snapshot view it bounds the parent-CSR prefix the view touches.
  size_t extent = 0;
  for (size_t v = 0; v < num_rows_; ++v) {
    extent = std::max(extent, static_cast<size_t>(row_end_[v]));
  }
  edge_extent_ = extent;
  if (!rk.weight_codebook) {
    weight_codes_.clear();
    code_table_.clear();
    code_table_f32_.clear();
  }

  if (rk.precision == ScorePrecision::kFloat) {
    contrib_f32_.resize(num_rows_);
    weights_f32_.resize(extent);
  } else {
    contrib_f32_.clear();
    weights_f32_.clear();
  }

  if (rk.adaptive) {
    base_.resize(num_rows_);
    moved_.resize(num_rows_);
    stale_.resize(num_rows_);
  } else {
    base_.clear();
    moved_.clear();
    stale_.clear();
  }
  return Status::OK();
}

size_t GatherEngine::MarkStaleRows(const double* contrib) {
  const size_t n = num_rows_;
  if (first_sweep_) {
    first_sweep_ = false;
    std::fill(stale_.begin(), stale_.end(), uint8_t{1});
    std::copy(contrib, contrib + n, base_.begin());
    return n;
  }
  const double atol = resolved_.adaptive_tolerance;
  const size_t chunks = ChunkCount(n, kRowGrain);
  chunk_rows_.assign(chunks, 0);
  ParallelForChunks(pool_, n, kRowGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    size_t count = 0;
    for (size_t u = begin; u < end; ++u) {
      const double c = contrib[u];
      if (std::abs(c - base_[u]) > atol) {
        moved_[u] = 1;
        base_[u] = c;
        ++count;
      } else {
        moved_[u] = 0;
      }
    }
    chunk_rows_[chunk] = count;
  });
  size_t moved_count = 0;
  for (size_t c = 0; c < chunks; ++c) moved_count += chunk_rows_[c];
  if (moved_count * kFullSweepDenominator >= n) {
    std::fill(stale_.begin(), stale_.end(), uint8_t{1});
    return n;
  }
  // Wake scatter, serial and in source order (idempotent 1-stores, so the
  // stale set is deterministic regardless of how sources interleave).
  std::fill(stale_.begin(), stale_.end(), uint8_t{0});
  size_t stale_count = 0;
  for (size_t u = 0; u < n; ++u) {
    if (!moved_[u]) continue;
    for (EdgeId p = wake_begin_[u]; p < wake_end_[u]; ++p) {
      const NodeId v = wake_nbrs_[p];
      stale_count += stale_[v] == 0;
      stale_[v] = 1;
    }
  }
  return stale_count;
}

// analyze:init-scope — codebook construction runs once per Init, never in a sweep
void GatherEngine::BuildWeightCodebook(const double* edge_weights) {
  codes_built_for_ = edge_weights;
  codebook_active_ = false;
  constexpr size_t kMaxEntries = 256;  // codes are one byte
  // Keyed on the bit pattern, not the value: -0.0 vs 0.0 (or any NaN
  // payload) must round-trip to the identical double for bit-identity.
  std::unordered_map<uint64_t, uint8_t> index;
  index.reserve(2 * kMaxEntries);
  code_table_.clear();
  weight_codes_.resize(edge_extent_);
  for (size_t e = 0; e < edge_extent_; ++e) {
    uint64_t bits;
    std::memcpy(&bits, &edge_weights[e], sizeof(bits));
    auto it = index.find(bits);
    if (it == index.end()) {
      if (code_table_.size() == kMaxEntries) {
        // Too many distinct weights for byte codes — this array sweeps
        // with the raw weight stream instead.
        weight_codes_.clear();
        code_table_.clear();
        code_table_f32_.clear();
        return;
      }
      it = index.emplace(bits, static_cast<uint8_t>(code_table_.size())).first;
      code_table_.push_back(edge_weights[e]);
    }
    weight_codes_[e] = it->second;
  }
  code_table_f32_.assign(code_table_.begin(), code_table_.end());
  codebook_active_ = true;
}

template <typename Eval>
void GatherEngine::SweepRows(const Eval& eval) {
  const bool use_stale = resolved_.adaptive;
  const size_t chunks = ChunkCount(num_rows_, kRowGrain);
  chunk_rows_.assign(chunks, 0);
  ParallelForChunks(pool_, num_rows_, kRowGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    size_t rows = 0;
    for (size_t v = begin; v < end; ++v) {
      if (use_stale && !stale_[v]) continue;
      const size_t k = static_cast<size_t>(row_end_[v] - row_begin_[v]);
      gather_[v] = eval(v, row_nbrs_ + row_begin_[v], k);
      ++rows;
    }
    chunk_rows_[chunk] = rows;
  });
}

template <double (*kSum)(const double*, const NodeId*, size_t),
          double (*kDot)(const double*, const double*, const NodeId*, size_t),
          double (*kSumF)(const float*, const NodeId*, size_t),
          double (*kDotF)(const float*, const float*, const NodeId*, size_t),
          double (*kDotC)(const double*, const double*, const uint8_t*,
                          const NodeId*, size_t),
          double (*kDotCF)(const float*, const float*, const uint8_t*,
                           const NodeId*, size_t)>
void GatherEngine::RunVariant(const double* contrib_d, const double* w_d,
                              bool use_codes) {
  // Codes are indexed by edge id, exactly like w_d.
  const uint8_t* codes = weight_codes_.data();
  if (resolved_.precision == ScorePrecision::kDouble) {
    if (use_codes) {
      const double* table = code_table_.data();
      SweepRows([this, contrib_d, table,
                 codes](size_t v, const NodeId* idx, size_t k) {
        return kDotC(contrib_d, table, codes + row_begin_[v], idx, k);
      });
    } else if (w_d != nullptr) {
      SweepRows([this, contrib_d, w_d](size_t v, const NodeId* idx, size_t k) {
        return kDot(contrib_d, w_d + row_begin_[v], idx, k);
      });
    } else {
      SweepRows([contrib_d](size_t, const NodeId* idx, size_t k) {
        return kSum(contrib_d, idx, k);
      });
    }
  } else {
    const float* cf = contrib_f32_.data();
    if (use_codes) {
      const float* table = code_table_f32_.data();
      SweepRows([this, cf, table, codes](size_t v, const NodeId* idx,
                                         size_t k) {
        return kDotCF(cf, table, codes + row_begin_[v], idx, k);
      });
    } else if (w_d != nullptr) {
      const float* wf = weights_f32_.data();
      SweepRows([this, cf, wf](size_t v, const NodeId* idx, size_t k) {
        return kDotF(cf, wf + row_begin_[v], idx, k);
      });
    } else {
      SweepRows([cf](size_t, const NodeId* idx, size_t k) {
        return kSumF(cf, idx, k);
      });
    }
  }
}

const double* GatherEngine::Gather(const double* contrib,
                                   const double* edge_weights) {
  if (resolved_.adaptive) MarkStaleRows(contrib);

  if (resolved_.weight_codebook && edge_weights != nullptr &&
      codes_built_for_ != edge_weights) {  // NOLINT(float-compare): pointer identity, not a value comparison
    // Weights are per-solve constants (see the Gather contract), so the
    // code/table build runs once per distinct array, not per sweep.
    BuildWeightCodebook(edge_weights);
  }
  const bool use_codes = codebook_active_ && edge_weights != nullptr;

  // Float sweeps read a float mirror of the contribution array.
  if (resolved_.precision == ScorePrecision::kFloat) {
    ParallelFor(pool_, num_rows_, kRowGrain, [&](size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        contrib_f32_[u] = static_cast<float>(contrib[u]);
      }
    });
    if (edge_weights != nullptr && !use_codes &&
        weights_seen_ != edge_weights) {  // NOLINT(float-compare): pointer identity, not a value comparison
      // Weights are per-solve constants (see the Gather contract), so the
      // float mirror converts once per distinct array, not per sweep.
      // Codebook sweeps read the float table instead and skip the mirror.
      ParallelFor(pool_, weights_f32_.size(), kRowGrain,
                  [&](size_t begin, size_t end) {
        for (size_t e = begin; e < end; ++e) {
          weights_f32_[e] = static_cast<float>(edge_weights[e]);
        }
      });
      weights_seen_ = edge_weights;
    }
  }

  switch (resolved_.simd) {
    case SimdMode::kScalar:
      RunVariant<RowSumScalar, RowDotScalar, RowSumScalarF32, RowDotScalarF32,
                 RowDotCodeScalar, RowDotCodeScalarF32>(
          contrib, edge_weights, use_codes);
      break;
    case SimdMode::kAvx2:
      RunVariant<RowSumAvx2, RowDotAvx2, RowSumAvx2F32, RowDotAvx2F32,
                 RowDotCodeAvx2, RowDotCodeAvx2F32>(contrib, edge_weights,
                                                    use_codes);
      break;
    case SimdMode::kLegacy:
      RunVariant<RowSumLegacy, RowDotLegacy, RowSumLegacyF32, RowDotLegacyF32,
                 RowDotCodeLegacy, RowDotCodeLegacyF32>(
          contrib, edge_weights, use_codes);
      break;
    case SimdMode::kAuto:
      break;  // unreachable: Init resolves kAuto away
  }

  size_t gathered = 0;
  for (size_t c : chunk_rows_) gathered += c;
  last_rows_gathered_ = gathered;
  total_rows_gathered_ += gathered;
  ++sweeps_;
  return gather_.data();
}

}  // namespace kernel
}  // namespace scholar
