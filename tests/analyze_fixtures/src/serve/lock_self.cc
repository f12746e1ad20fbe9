// lock-order fixture: direct self-deadlock. scholar::Mutex is
// non-reentrant, so re-acquiring mu_ while it is already held hangs.
//
// Expected findings (1): self-deadlock at the second MutexLock.

#include "util/mutex.h"

namespace scholar {

class Reentrant {
 public:
  void Twice() {
    MutexLock g1(mu_);
    Refresh();
    MutexLock g2(mu_);
  }

  void Refresh() {}

 private:
  Mutex mu_;  // NOLINT(mutex-guard): lock-order works without annotations
};

}  // namespace scholar
