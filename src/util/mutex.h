// Annotated lock primitives — the capability-carrying replacements for std::mutex /
// std::shared_mutex everywhere in src/ (enforced by scripts/odf_lint.py rule
// raw-std-mutex; docs/debugging.md "Static lock-discipline analysis").
//
// These are zero-cost veneers: each wraps exactly the std primitive it replaces and adds
// the Clang thread-safety attributes from src/util/thread_annotations.h, so that a field
// declared ODF_GUARDED_BY(mutex_) is statically checked against every access. Under GCC
// (the container default) the attributes vanish and the types are byte-identical to the
// std ones.
//
// Deadlock-*order* checking stays with lockdep (src/debug/lockdep.h): mm-critical
// acquisitions still go through debug::MutexGuard (which now takes a util::Mutex and is
// itself a scoped capability). The scoped lockers here are for infrastructure below the
// mm lock graph (trace, fi, replay, util) where lockdep registration is deliberately not
// wanted.
#ifndef ODF_SRC_UTIL_MUTEX_H_
#define ODF_SRC_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "src/util/thread_annotations.h"

namespace odf::util {

// Exclusive mutex capability. std-compatible lowercase members keep it BasicLockable
// (std::condition_variable_any, std::lock_guard in generic code) — but annotated call
// sites should use MutexLock / debug::MutexGuard so the analysis sees the RAII extent.
class ODF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ODF_ACQUIRE() { mu_.lock(); }  // odf-lint: allow(naked-lock) — primitive.
  void unlock() ODF_RELEASE() { mu_.unlock(); }  // odf-lint: allow(naked-lock) — primitive.
  bool try_lock() ODF_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

// Reader/writer mutex capability (the annotated std::shared_mutex).
class ODF_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ODF_ACQUIRE() { mu_.lock(); }  // odf-lint: allow(naked-lock) — primitive.
  void unlock() ODF_RELEASE() { mu_.unlock(); }  // odf-lint: allow(naked-lock) — primitive.
  bool try_lock() ODF_TRY_ACQUIRE(true) { return mu_.try_lock(); }
  void lock_shared() ODF_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() ODF_RELEASE_SHARED() { mu_.unlock_shared(); }
  bool try_lock_shared() ODF_TRY_ACQUIRE_SHARED(true) { return mu_.try_lock_shared(); }

 private:
  std::shared_mutex mu_;
};

// RAII exclusive hold — the std::lock_guard replacement the analysis understands.
class ODF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ODF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;
  ~MutexLock() ODF_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

// RAII try-lock: holds the mutex only when `ok()` (checked by the analysis through the
// constructor's try-acquire contract and the boolean conversion). Stores a pointer, not
// a reference + flag: the analysis special-cases null checks on the capability pointer,
// so `if (lock.ok())` correctly narrows to the held state.
class ODF_SCOPED_CAPABILITY TryMutexLock {
 public:
  explicit TryMutexLock(Mutex& mu) ODF_TRY_ACQUIRE(true, mu)
      : mu_(mu.try_lock() ? &mu : nullptr) {}
  TryMutexLock(const TryMutexLock&) = delete;
  TryMutexLock& operator=(const TryMutexLock&) = delete;
  ~TryMutexLock() ODF_RELEASE() {
    if (mu_ != nullptr) {
      mu_->unlock();
    }
  }

  bool ok() const { return mu_ != nullptr; }
  explicit operator bool() const { return mu_ != nullptr; }

 private:
  Mutex* mu_;
};

// RAII exclusive / shared holds on a SharedMutex.
class ODF_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ODF_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;
  ~WriterLock() ODF_RELEASE() { mu_.unlock(); }

 private:
  SharedMutex& mu_;
};

class ODF_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ODF_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;
  ~ReaderLock() ODF_RELEASE_GENERIC() { mu_.unlock_shared(); }

 private:
  SharedMutex& mu_;
};

// Condition variable over util::Mutex. Wait declares the held mutex, so guarded state
// read in the caller's `while (!cond) cv.Wait(mu);` loop checks statically (predicate
// lambdas are deliberately not offered: the analysis does not carry lock state into
// lambda bodies, so the loop form is the one it can verify). The unlock/relock inside
// the standard library is invisible to the analysis (system headers are exempt), which
// matches the semantics: the capability is held whenever caller code runs.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks until notified, and reacquires `mu`. Spurious
  // wakeups possible — always call in a predicate loop.
  void Wait(Mutex& mu) ODF_REQUIRES(mu) { cv_.wait(mu); }

  // Like Wait, but also returns once `deadline` passes. Returns false on timeout.
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      ODF_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline) == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace odf::util

#endif  // ODF_SRC_UTIL_MUTEX_H_
