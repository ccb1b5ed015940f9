/// \file mutex.h
/// \brief Annotated mutex wrappers for clang Thread Safety Analysis.
///
/// libstdc++'s std::mutex / std::lock_guard carry no thread-safety
/// annotations, so `CP_GUARDED_BY(some_std_mutex)` is unenforceable: the
/// analysis never sees an acquire. These zero-cost wrappers close that
/// gap — `Mutex` is a CP_CAPABILITY whose Lock/Unlock are annotated, and
/// `MutexLock` is the scoped guard the analysis tracks. All shared-state
/// classes in the repo (ThreadPool, the run Ledger) lock through these.
///
/// Condition variables: use std::condition_variable_any and wait on the
/// Mutex directly (`cv.wait(mutex_)`) with an explicit predicate loop.
/// The wait re-locks before returning, so from the caller's (and the
/// analysis's) point of view the capability is held throughout — which is
/// exactly the guarantee the surrounding code relies on. Predicates must
/// be written as `while (!pred) cv.wait(mu);` rather than the
/// lambda-predicate overload: the analysis does not propagate held
/// capabilities into lambda bodies, so a guarded read inside the lambda
/// would (spuriously) fail the analysis.

#ifndef COVERPACK_UTIL_MUTEX_H_
#define COVERPACK_UTIL_MUTEX_H_

#include <mutex>

#include "util/thread_annotations.h"

namespace coverpack {

/// An annotated std::mutex. Also satisfies *BasicLockable* (lowercase
/// lock/unlock) so std::condition_variable_any can wait on it directly.
class CP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() CP_ACQUIRE() { m_.lock(); }
  void Unlock() CP_RELEASE() { m_.unlock(); }

  // BasicLockable spelling, required by std::condition_variable_any. The
  // cv's internal unlock/relock during a wait is invisible to the
  // analysis, matching the caller-visible contract (held before, held
  // after).
  void lock() CP_ACQUIRE() { m_.lock(); }      // NOLINT(readability-identifier-naming)
  void unlock() CP_RELEASE() { m_.unlock(); }  // NOLINT(readability-identifier-naming)

 private:
  std::mutex m_;
};

/// RAII guard over one Mutex (the annotated std::lock_guard).
class CP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) CP_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() CP_RELEASE() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

}  // namespace coverpack

#endif  // COVERPACK_UTIL_MUTEX_H_
