// guard-consistency fixture: consistent discipline — every access to
// sum_ holds mu_, including the path reached from a parallel context.
// Fed to the scholar_analyze binary by scholar_analyze_test; never
// compiled.
//
// Expected findings: none.

#include "util/mutex.h"
#include "util/thread_pool.h"

namespace scholar {

void Keep(long v);

class Safe {
 public:
  void Add(long v) {
    MutexLock lock(mu_);
    sum_ = sum_ + v;
  }

  long Get() {
    MutexLock lock(mu_);
    return sum_;
  }

  void Pump(ThreadPool* pool) {
    pool->Submit([this] { Keep(Get()); });
  }

 private:
  Mutex mu_;  // NOLINT(mutex-guard): guard-consistency works without annotations
  long sum_ = 0;
};

}  // namespace scholar
