// Fixture: properly annotated mutex-protected state.
#ifndef ANALYZE_FIXTURE_GOOD_MUTEX_MEMBER_H_
#define ANALYZE_FIXTURE_GOOD_MUTEX_MEMBER_H_

#include <mutex>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

class AnnotatedCounter {
 public:
  void Bump() {
    scholar::MutexLock lock(mu_);
    ++count_;
  }

 private:
  scholar::Mutex mu_;
  int count_ GUARDED_BY(mu_) = 0;
};

// A lock_guard<std::mutex> local inside a function body must not be
// mistaken for a member declaration.
class LocalLockOnly {
 public:
  int Get() const;

 private:
  mutable Mutex mu_;
  std::vector<int> items_ GUARDED_BY(mu_);
};

#endif  // ANALYZE_FIXTURE_GOOD_MUTEX_MEMBER_H_
