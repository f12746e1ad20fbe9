// Fixture: a NOLINT naming the wrong rule must not suppress.
#include "serve/nolint_mismatch.h"

#include <iostream>

void Dump() {
  std::cout << "oops\n";  // NOLINT(float-compare): wrong rule, still flagged
}
