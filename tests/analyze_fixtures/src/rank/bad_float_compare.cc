// Fixture: every == / != on floating-point data in src/rank/ must be
// diagnosed. Never compiled — consumed by scholar_analyze_test only.
#include "rank/bad_float_compare.h"

#include <vector>

bool Converged(double delta, const std::vector<double>& scores, int i) {
  if (delta == 0.0) return true;                 // literal operand
  if (scores[i] != scores[i + 1]) return false;  // declared-double operand
  return delta != 1e-9;                          // exponent literal operand
}
