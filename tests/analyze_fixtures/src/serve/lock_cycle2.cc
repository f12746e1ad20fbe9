// lock-order fixture: the classic two-mutex ABBA inversion. Fed to the
// scholar_analyze binary by scholar_analyze_test; never compiled.
//
// Publish acquires alpha_ then beta_; Retire acquires beta_ then alpha_.
// Expected findings (1): a lock-order cycle
//   PairState::alpha_ -> PairState::beta_ -> PairState::alpha_.

#include "util/mutex.h"

namespace scholar {

class PairState {
 public:
  void Publish() {
    MutexLock a(alpha_);
    MutexLock b(beta_);
    ++published_;
  }

  void Retire() {
    MutexLock b(beta_);
    MutexLock a(alpha_);
    --published_;
  }

 private:
  Mutex alpha_;  // NOLINT(mutex-guard): lock-order works without annotations
  Mutex beta_;  // NOLINT(mutex-guard): lock-order works without annotations
  int published_ = 0;
};

}  // namespace scholar
