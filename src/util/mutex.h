#ifndef SCHOLARRANK_UTIL_MUTEX_H_
#define SCHOLARRANK_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace scholar {

/// Annotated mutex for clang thread-safety analysis.
///
/// libstdc++'s std::mutex carries no capability attributes, so
/// -Wthread-safety cannot reason about it; this thin wrapper re-exposes it
/// as a CAPABILITY and is the project-wide replacement for naked
/// std::mutex members (enforced by scholar_analyze's mutex-guard rule).
/// Zero overhead: every method is an inline forward.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// BasicLockable spelling so CondVar (condition_variable_any) can
  /// unlock/relock the mutex during a wait.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;  // NOLINT(mutex-guard): the capability itself
};

/// RAII lock for Mutex, understood by the analysis as a scoped capability.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with scholar::Mutex.
///
/// Wait() takes the Mutex directly (condition_variable_any relocks it via
/// the BasicLockable interface), so waits are written as explicit
/// predicate loops whose condition reads GUARDED_BY state — which the
/// analysis can check, unlike a predicate lambda handed to
/// std::condition_variable::wait:
///
///   MutexLock lock(mu_);
///   while (!ready_locked()) cv_.Wait(mu_);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires `mu`.
  /// Spurious wakeups are possible: always wait in a predicate loop.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }  // NOLINT(guard-consistency): notify without the lock is the sanctioned pattern; waiters re-check their predicate under mu

 private:
  std::condition_variable_any cv_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_UTIL_MUTEX_H_
