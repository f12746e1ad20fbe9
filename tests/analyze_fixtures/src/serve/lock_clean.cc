// lock-order fixture: consistent outer_ -> inner_ ordering everywhere,
// plus a leaf function taking only the inner lock. The acquisition graph
// is acyclic; must produce no findings.

#include "util/mutex.h"

namespace scholar {

class OrderedState {
 public:
  void First() {
    MutexLock g1(outer_);
    MutexLock g2(inner_);
    ++epoch_;
  }

  void Second() {
    MutexLock g1(outer_);
    MutexLock g2(inner_);
    --epoch_;
  }

  void InnerOnly() {
    MutexLock g(inner_);
    ++epoch_;
  }

 private:
  Mutex outer_;  // NOLINT(mutex-guard): lock-order works without annotations
  Mutex inner_;  // NOLINT(mutex-guard): lock-order works without annotations
  int epoch_ = 0;
};

}  // namespace scholar
