// determinism fixture: WallTimer reads steady_clock behind util/timer.h's
// Clock alias, so building one inside src/stream/ is a clock read in an
// order-sensitive subsystem. Fed to the scholar_analyze binary by
// scholar_analyze_test; never compiled.
//
// Expected findings (2): determinism at both WallTimer declarations.

#include "util/timer.h"

namespace scholar {

double TimedApply(int edges) {
  WallTimer timer;
  double cost = 0.0;
  for (int e = 0; e < edges; ++e) cost += 1.0;
  return cost + timer.ElapsedMillis();
}

bool StaleAfter(double budget_ms) {
  const WallTimer started;
  return started.ElapsedMillis() > budget_ms;
}

}  // namespace scholar
