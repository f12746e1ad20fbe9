// Fixture: every violation here is suppressed, so the file is clean.
#include "serve/nolint_suppressed.h"

#include <iostream>
#include <random>

void Dump(double a, double b) {
  std::cout << "debug dump\n";  // NOLINT(raw-stdout): debug dump
  std::mt19937 gen(42);         // NOLINT(determinism): fixed seed
  (void)gen;
  (void)a;
  (void)b;
  std::cout << rand();  // NOLINT(raw-stdout, determinism): debug dump
}
