#ifndef SCHOLARRANK_RANK_KERNEL_SIMD_H_
#define SCHOLARRANK_RANK_KERNEL_SIMD_H_

/// Row-gather primitives of the iteration engine, in three flavors that
/// share one *canonical reduction order*:
///
///   scalar  portable C++, 4 (double) / 8 (float) striped accumulator
///           lanes: lane j sums the terms at in-row positions i with
///           i % lanes == j, and the lanes combine pairwise
///           ((l0+l1)+(l2+l3)) [+ ((l4+l5)+(l6+l7)) in float mode].
///   avx2    the same lane assignment executed with hardware gathers and
///           256-bit adds — *bit-identical* to scalar by construction.
///   legacy  the pre-kernel strictly sequential accumulation (PR-2
///           order), kept as the historical baseline; differs from the
///           striped order only by last-ulp regrouping.
///
/// Float-precision variants read float contributions but widen every
/// operand to double before adding, so the only error vs the double path
/// is the float representation error of the inputs.
///
/// This header is intrinsic-free; every raw intrinsic lives in simd.cc
/// (the scholar_analyze `raw-intrinsics` rule bans them anywhere outside
/// src/rank/kernel/).

#include <cstddef>
#include <cstdint>

#include "graph/types.h"

namespace scholar {
namespace kernel {

/// Widest gather ISA the *host CPU* can execute (independent of what the
/// binary was compiled for — the AVX2 path is built with a function-level
/// target attribute and dispatched at runtime).
enum class SimdLevel { kScalarOnly, kAvx2 };

SimdLevel DetectSimdLevel();

/// "avx2" / "scalar" — recorded into every BENCH_*.json header.
const char* SimdIsaName();

// --------------------------------------------------------------------------
// Scalar striped primitives (the bit-exactness oracle for the AVX2 path).
// `idx[0..k)` are in-row neighbor positions into `contrib`.
// --------------------------------------------------------------------------

inline double RowSumScalar(const double* contrib, const NodeId* idx,
                           size_t k) {
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t i = 0; i < k; ++i) lane[i & 3] += contrib[idx[i]];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

inline double RowSumScalarF32(const float* contrib, const NodeId* idx,
                              size_t k) {
  double lane[8] = {0.0};
  for (size_t i = 0; i < k; ++i) {
    lane[i & 7] += static_cast<double>(contrib[idx[i]]);
  }
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

// --------------------------------------------------------------------------
// Legacy sequential primitives (the PR-2 accumulation order).
// --------------------------------------------------------------------------

inline double RowSumLegacy(const double* contrib, const NodeId* idx,
                           size_t k) {
  double acc = 0.0;
  for (size_t i = 0; i < k; ++i) acc += contrib[idx[i]];
  return acc;
}

inline double RowSumLegacyF32(const float* contrib, const NodeId* idx,
                              size_t k) {
  double acc = 0.0;
  for (size_t i = 0; i < k; ++i) acc += static_cast<double>(contrib[idx[i]]);
  return acc;
}

// --------------------------------------------------------------------------
// AVX2 primitives (simd.cc, compiled with a function-level AVX2 target).
// Call only when DetectSimdLevel() == kAvx2; bit-identical to the scalar
// striped primitives above. Indices must be < 2^31 (NodeId counts are).
// --------------------------------------------------------------------------

double RowSumAvx2(const double* contrib, const NodeId* idx, size_t k);
double RowSumAvx2F32(const float* contrib, const NodeId* idx, size_t k);

}  // namespace kernel
}  // namespace scholar

#endif  // SCHOLARRANK_RANK_KERNEL_SIMD_H_
