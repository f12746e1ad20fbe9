// Fixture: a deliberate out-of-kernel intrinsic says so line by line
// with reasoned NOLINT(raw-intrinsics) markers; nothing may fire.

#include <immintrin.h>  // NOLINT(raw-intrinsics): fixture exception

namespace scholar {

double FirstLane(const double* p) {
  __m256d v = _mm256_loadu_pd(p);  // NOLINT(raw-intrinsics): fixture exception
  double out[4];
  _mm256_storeu_pd(out, v);  // NOLINT(raw-intrinsics): fixture exception
  return out[0];
}

}  // namespace scholar
