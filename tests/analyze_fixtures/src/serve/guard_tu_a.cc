// guard-consistency fixture, TU 1 of 2: the guarded half. Gauge::Set
// writes value_ under mu_. On its own this file is clean — the bare
// accesses live in guard_tu_b.cc, and only a run that feeds both files
// can see the inconsistency. Fed to the scholar_analyze binary by
// scholar_analyze_test; never compiled.

#include "util/mutex.h"

namespace scholar {

class Gauge {
 public:
  void Set(long v);
  long Read();

 private:
  Mutex mu_;  // NOLINT(mutex-guard): guard-consistency works without annotations
  long value_ = 0;
};

void Gauge::Set(long v) {
  MutexLock lock(mu_);
  value_ = v;
}

}  // namespace scholar
