#include "rank/kernel/gather_engine.h"

#include <algorithm>
#include <cmath>

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
  sweeps_ = 0;
  last_rows_gathered_ = 0;
  total_rows_gathered_ = 0;

  if (rk.precision == ScorePrecision::kFloat) {
    contrib_f32_.resize(num_rows_);
  } else {
    contrib_f32_.clear();
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
      gather_[v] = eval(row_nbrs_ + row_begin_[v], k);
      ++rows;
    }
    chunk_rows_[chunk] = rows;
  });
}

template <double (*kSum)(const double*, const NodeId*, size_t),
          double (*kSumF)(const float*, const NodeId*, size_t)>
void GatherEngine::RunVariant(const double* contrib_d) {
  if (resolved_.precision == ScorePrecision::kDouble) {
    SweepRows([contrib_d](const NodeId* idx, size_t k) {
      return kSum(contrib_d, idx, k);
    });
  } else {
    const float* cf = contrib_f32_.data();
    SweepRows([cf](const NodeId* idx, size_t k) {
      return kSumF(cf, idx, k);
    });
  }
}

const double* GatherEngine::Gather(const double* contrib) {
  if (resolved_.adaptive) MarkStaleRows(contrib);

  // Float sweeps read a float mirror of the contribution array.
  if (resolved_.precision == ScorePrecision::kFloat) {
    ParallelFor(pool_, num_rows_, kRowGrain, [&](size_t begin, size_t end) {
      for (size_t u = begin; u < end; ++u) {
        contrib_f32_[u] = static_cast<float>(contrib[u]);
      }
    });
  }

  switch (resolved_.simd) {
    case SimdMode::kScalar:
      RunVariant<RowSumScalar, RowSumScalarF32>(contrib);
      break;
    case SimdMode::kAvx2:
      RunVariant<RowSumAvx2, RowSumAvx2F32>(contrib);
      break;
    case SimdMode::kLegacy:
      RunVariant<RowSumLegacy, RowSumLegacyF32>(contrib);
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
