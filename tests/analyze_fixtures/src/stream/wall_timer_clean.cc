// determinism fixture: the sanctioned shapes for timing in src/stream/ —
// a duration handed in as an input, and a WallTimer whose reasoned
// NOLINT(determinism) says its readings never reach scores. Fed to the
// scholar_analyze binary by scholar_analyze_test; never compiled.
//
// Expected findings: none (and the live marker is not stale).

#include "util/timer.h"

namespace scholar {

struct EpochCost {
  double apply_ms = 0.0;
  double rank_ms = 0.0;
};

EpochCost Account(double apply_ms) {
  EpochCost cost;
  cost.apply_ms = apply_ms;
  WallTimer timer;  // NOLINT(determinism): the duration goes to EpochCost, never into scores
  cost.rank_ms = timer.ElapsedMillis();
  return cost;
}

}  // namespace scholar
