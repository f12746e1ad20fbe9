// Fixture: compliant floating-point handling in src/rank/.
#include "rank/good_float_compare.h"

#include <cmath>
#include <vector>

bool Converged(double delta, const std::vector<double>* scores, int round) {
  if (scores == nullptr) return false;      // pointer compare: not flagged
  if (round == 0 || round != 7) return false;  // integer compares: fine
  return std::abs(delta) < 1e-12;           // tolerance compare: fine
}

bool ExactTieIntended(double a, double b) {
  return a == b;  // NOLINT(float-compare): bit-identity tie grouping
}
