#include "rank/kernel/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SCHOLAR_KERNEL_X86 1
#else
#define SCHOLAR_KERNEL_X86 0
#endif

namespace scholar {
namespace kernel {

SimdLevel DetectSimdLevel() {
#if SCHOLAR_KERNEL_X86 && defined(__GNUC__)
  static const SimdLevel level = __builtin_cpu_supports("avx2")
                                     ? SimdLevel::kAvx2
                                     : SimdLevel::kScalarOnly;
  return level;
#else
  return SimdLevel::kScalarOnly;
#endif
}

const char* SimdIsaName() {
  return DetectSimdLevel() == SimdLevel::kAvx2 ? "avx2" : "scalar";
}

#if SCHOLAR_KERNEL_X86

// The AVX2 bodies mirror the scalar striped primitives exactly: vector
// lane j holds the partial sum of in-row positions i with i % 4 == j
// (i % 8 for float inputs), accumulated in increasing i order, and the
// lanes combine through the same pairwise tree.

__attribute__((target("avx2"))) double RowSumAvx2(const double* contrib,
                                                  const NodeId* idx,
                                                  size_t k) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m128i vi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    acc = _mm256_add_pd(acc, _mm256_i32gather_pd(contrib, vi, 8));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  for (; i < k; ++i) lane[i & 3] += contrib[idx[i]];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

__attribute__((target("avx2"))) double RowSumAvx2F32(const float* contrib,
                                                     const NodeId* idx,
                                                     size_t k) {
  __m256d acc_lo = _mm256_setzero_pd();  // lanes i%8 in 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // lanes i%8 in 4..7
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    const __m256i vi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
    const __m256 g = _mm256_i32gather_ps(contrib, vi, 4);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(g)));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(g, 1)));
  }
  alignas(32) double lane[8];
  _mm256_store_pd(lane, acc_lo);
  _mm256_store_pd(lane + 4, acc_hi);
  for (; i < k; ++i) lane[i & 7] += static_cast<double>(contrib[idx[i]]);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

#else  // !SCHOLAR_KERNEL_X86

// Non-x86 hosts: DetectSimdLevel() never reports kAvx2, so these are
// unreachable; they exist only to satisfy the linker.

double RowSumAvx2(const double* contrib, const NodeId* idx, size_t k) {
  return RowSumScalar(contrib, idx, k);
}
double RowSumAvx2F32(const float* contrib, const NodeId* idx, size_t k) {
  return RowSumScalarF32(contrib, idx, k);
}

#endif  // SCHOLAR_KERNEL_X86

}  // namespace kernel
}  // namespace scholar
