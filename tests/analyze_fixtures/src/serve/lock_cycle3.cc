// lock-order fixture: a three-mutex cycle where one edge is transitive —
// RotateC holds c_ and calls AcquireRoot, which acquires a_. The analyzer
// must close the may-acquire fixpoint through the call graph to see the
// c_ -> a_ edge.
//
// Expected findings (1): a lock-order cycle
//   TriadState::a_ -> TriadState::b_ -> TriadState::c_ -> TriadState::a_.

#include "util/mutex.h"

namespace scholar {

class TriadState {
 public:
  void RotateA() {
    MutexLock g1(a_);
    MutexLock g2(b_);
  }

  void RotateB() {
    MutexLock g1(b_);
    MutexLock g2(c_);
  }

  void AcquireRoot() {
    MutexLock g(a_);
  }

  void RotateC() {
    MutexLock g1(c_);
    AcquireRoot();
  }

 private:
  Mutex a_;  // NOLINT(mutex-guard): lock-order works without annotations
  Mutex b_;  // NOLINT(mutex-guard): lock-order works without annotations
  Mutex c_;  // NOLINT(mutex-guard): lock-order works without annotations
};

}  // namespace scholar
