#ifndef SCHOLARRANK_RANK_KERNEL_KERNEL_OPTIONS_H_
#define SCHOLARRANK_RANK_KERNEL_KERNEL_OPTIONS_H_

#include <string>

#include "util/config.h"
#include "util/status.h"

namespace scholar {
namespace kernel {

/// Which gather implementation the iteration engine runs.
///
///   kAuto    pick the widest ISA the host supports (AVX2 today), falling
///            back to kScalar. The default.
///   kScalar  the portable 4/8-lane *striped* scalar path. This is the
///            bit-exactness oracle: the SIMD paths reproduce its results
///            bit for bit because both reduce each adjacency row through
///            the same fixed lane-striped addition tree.
///   kAvx2    AVX2 gather + 256-bit lane accumulators. Refused at engine
///            setup when the host cannot execute AVX2.
///   kLegacy  the pre-kernel sequential per-row accumulation (the PR-2
///            order). Kept as the historical baseline for benchmarks and
///            for drift comparisons; scores differ from kScalar only by
///            last-ulp regrouping noise.
enum class SimdMode { kAuto, kScalar, kAvx2, kLegacy };

/// Score-array element type used *inside* the gather.
///
///   kDouble  everything in double; the default and the reference.
///   kFloat   the per-source contribution array is mirrored to float —
///            halving the bytes the bandwidth-bound gather touches — while
///            every accumulation still happens in double. Drift vs the
///            double path is bounded by float representation error of the
///            inputs (measured <= 1e-6 absolute on every kernel; see
///            tests/kernel_test.cc).
enum class ScorePrecision { kDouble, kFloat };

/// Knobs of the iteration engine (src/rank/kernel/). Embedded in the
/// option structs of the rankers that sweep (katz, sceas, hits, the
/// streaming frontier); plumbed from the registry config keys `simd=`,
/// `score_precision=`, `adaptive=`, `adaptive_tolerance=`.
struct KernelOptions {
  SimdMode simd = SimdMode::kAuto;
  ScorePrecision precision = ScorePrecision::kDouble;
  /// Adaptive convergence: a row is re-gathered only when one of its
  /// sources' contributions moved by more than `adaptive_tolerance` since
  /// the row's inputs were last read; untouched rows reuse their stored
  /// gather. The first sweep is always full. Off = every sweep re-gathers
  /// every row (the fixed-work reference).
  bool adaptive = false;
  /// Per-source freeze threshold for `adaptive`. 0 skips a row only when
  /// its inputs are bit-unchanged (exact, still skips fully settled
  /// regions); larger values trade bounded drift for fewer gathers. The
  /// stored row value is stale by at most adaptive_tolerance * in-degree
  /// per sweep.
  double adaptive_tolerance = 1e-13;
};

/// Parses the kernel knobs out of a registry Config (absent keys keep the
/// defaults above). Unknown enum spellings are InvalidArgument.
Result<KernelOptions> KernelOptionsFromConfig(const Config& config);

Result<SimdMode> SimdModeFromString(const std::string& s);
Result<ScorePrecision> ScorePrecisionFromString(const std::string& s);

const char* SimdModeName(SimdMode mode);
const char* ScorePrecisionName(ScorePrecision precision);

}  // namespace kernel
}  // namespace scholar

#endif  // SCHOLARRANK_RANK_KERNEL_KERNEL_OPTIONS_H_
