#include "rank/kernel/simd.h"

namespace scholar {
namespace kernel {

SimdLevel DetectSimdLevel() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
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

}  // namespace kernel
}  // namespace scholar
