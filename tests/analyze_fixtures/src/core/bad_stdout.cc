// Fixture: direct stdio output from library code.
#include "core/bad_stdout.h"

#include <cstdio>
#include <iostream>

void Announce(int n) {
  std::cout << "ranked " << n << " nodes\n";  // diagnosed: cout
  std::printf("ranked %d nodes\n", n);        // diagnosed: printf
}
