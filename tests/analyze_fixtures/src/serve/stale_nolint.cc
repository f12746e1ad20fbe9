// Fixture for stale-nolint: dead suppressions are themselves violations,
// whichever audited rule they name.
//
// Expected: exactly two stale-nolint diagnostics, at the NOLINT(raw-stdout)
// and the NOLINT(determinism) below that suppress nothing. The live
// NOLINT(determinism) suppresses a real hit, and a lock-order marker
// removes graph edges rather than suppressing a finding, so neither fires.
#include "serve/stale_nolint.h"

#include <random>

namespace scholar::serve {

int StaleNolintFixture() {
  int total = 0;  // NOLINT(raw-stdout): dead, nothing prints here
  std::mt19937 gen(7);  // NOLINT(determinism): fixed seed
  total += static_cast<int>(gen());
  total += 1;  // NOLINT(determinism): dead, nothing random here
  total += 2;  // NOLINT(lock-order): edge markers are not audited
  return total;
}

}  // namespace scholar::serve
