// Fixture: ad-hoc randomness outside util/rng.
#include "util/bad_rng.h"

#include <cstdlib>
#include <random>

int Roll() {
  std::srand(1234);                   // diagnosed: srand
  std::mt19937 gen(std::random_device{}());  // diagnosed twice
  (void)gen;
  return std::rand() % 6;             // diagnosed: rand
}
