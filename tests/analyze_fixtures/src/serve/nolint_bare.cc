// Fixture: a bare NOLINT names no rule and carries no reason, so it
// suppresses nothing — the raw-stdout finding below still fires.
#include "serve/nolint_bare.h"

#include <iostream>

void Dump() {
  std::cout << "debug dump\n";  // NOLINT
}
