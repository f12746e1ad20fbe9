// Fixture: mutex members with no GUARDED_BY sibling on any state.
#ifndef ANALYZE_FIXTURE_BAD_MUTEX_MEMBER_H_
#define ANALYZE_FIXTURE_BAD_MUTEX_MEMBER_H_

#include <mutex>
#include <vector>

#include "util/mutex.h"

class NakedStdMutex {
 public:
  void Push(int v);

 private:
  std::mutex mu_;           // diagnosed: nothing is GUARDED_BY it
  std::vector<int> items_;  // the state it presumably protects
};

struct NakedScholarMutex {
  scholar::Mutex* unrelated;  // pointer member: not a mutex declaration
  Mutex mu_;                  // diagnosed: annotated type, unannotated state
  int counter = 0;
};

#endif  // ANALYZE_FIXTURE_BAD_MUTEX_MEMBER_H_
