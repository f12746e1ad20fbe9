// lock-order fixture: the same ABBA inversion as lock_cycle2.cc, but the
// inverted acquisition carries a reason-bearing NOLINT, which removes that
// site's edges from the graph. Must produce no findings.

#include "util/mutex.h"

namespace scholar {

class AuditedPair {
 public:
  void Publish() {
    MutexLock a(alpha_);
    MutexLock b(beta_);
    ++published_;
  }

  void Retire() {
    MutexLock b(beta_);
    MutexLock a(alpha_);  // NOLINT(lock-order): fixture-audited inversion, never concurrent with Publish
    --published_;
  }

 private:
  Mutex alpha_;  // NOLINT(mutex-guard): lock-order works without annotations
  Mutex beta_;  // NOLINT(mutex-guard): lock-order works without annotations
  int published_ = 0;
};

}  // namespace scholar
