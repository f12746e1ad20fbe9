#ifndef SCHOLARRANK_RANK_KERNEL_SIMD_H_
#define SCHOLARRANK_RANK_KERNEL_SIMD_H_

/// The host's widest gather ISA, recorded in every bench and perfbench host
/// header. No ranker dispatches on it: every kernel is portable C++ (the
/// scholar_analyze `raw-intrinsics` rule keeps raw intrinsics inside
/// src/rank/kernel/).

namespace scholar {
namespace kernel {

/// Widest gather ISA the *host CPU* can execute (independent of what the
/// binary was compiled for).
enum class SimdLevel { kScalarOnly, kAvx2 };

SimdLevel DetectSimdLevel();

/// "avx2" / "scalar" — recorded into every BENCH_*.json header.
const char* SimdIsaName();

}  // namespace kernel
}  // namespace scholar

#endif  // SCHOLARRANK_RANK_KERNEL_SIMD_H_
