// guard-consistency fixture: one field, two disciplines, one file.
// Credit touches balance_ under mu_; Peek reads it bare, and Peek is
// called from inside a ThreadPool::Submit lambda, making it reachable
// from a parallel context. Fed to the scholar_analyze binary by
// scholar_analyze_test; never compiled.
//
// Expected findings (1): guard-consistency on the bare read in Peek,
// with Credit as the guarded witness.

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace scholar {

void Sink(long v);

class Ledger {
 public:
  void Credit(long v) {
    MutexLock lock(mu_);
    balance_ = balance_ + v;
  }

  long Peek() { return balance_; }

  void Audit(ThreadPool* pool) {
    pool->Submit([this] { Sink(Peek()); });
  }

 private:
  Mutex mu_;  // NOLINT(mutex-guard): guard-consistency works without annotations
  long balance_ = 0;
};

}  // namespace scholar
