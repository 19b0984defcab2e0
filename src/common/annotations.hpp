// Clang thread-safety annotations + the annotated lock primitives every
// shared-mutable structure in the repo uses.
//
// The engine's concurrency story — the process-wide WorkStealingPool, the
// Evaluator's accuracy memo, the EvalStore's snapshot map, the daemon's
// in-flight key set — used to be checked only at runtime, by whatever races
// the TSan job's inputs happened to exercise. These macros make the locking
// discipline *statically* checkable: a field tagged APSQ_GUARDED_BY(mu)
// cannot be touched without holding mu, a function tagged
// APSQ_REQUIRES(mu) cannot be called without it, and the build fails
// (-Wthread-safety -Werror=thread-safety-analysis under Clang, the
// APSQ_THREAD_SAFETY CMake option) instead of the sweep racing. GCC
// compiles the same code with the macros expanding to nothing.
//
// Discipline: outside this header, code must not declare a naked
// std::mutex / std::lock_guard / std::condition_variable — use Mutex,
// MutexLock, and CondVar below so the analysis sees every acquisition
// (tools/apsq_lint.py rule `naked-mutex` enforces this, with the pinned
// allowlist naming the survivors). tests/static/ holds negative-compile
// fixtures proving the annotations actually reject an unguarded access, a
// self-deadlocking re-acquisition, and a missing-REQUIRES call.
#pragma once

#include <condition_variable>
#include <mutex>

// Clang exposes the analysis via __attribute__((capability)) and friends;
// every other compiler sees empty macros and identical codegen.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define APSQ_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef APSQ_THREAD_ANNOTATION
#define APSQ_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a type whose instances are capabilities (lockable things).
#define APSQ_CAPABILITY(x) APSQ_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability in its constructor
/// and releases it in its destructor.
#define APSQ_SCOPED_CAPABILITY APSQ_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define APSQ_GUARDED_BY(x) APSQ_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field: the *pointee* may only be touched while holding `x`.
#define APSQ_PT_GUARDED_BY(x) APSQ_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the capability (exclusively) to call this function.
#define APSQ_REQUIRES(...) \
  APSQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define APSQ_ACQUIRE(...) \
  APSQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability the caller held.
#define APSQ_RELEASE(...) \
  APSQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `ret`.
#define APSQ_TRY_ACQUIRE(ret, ...) \
  APSQ_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Caller must NOT hold the capability (deadlock guard for functions that
/// acquire it themselves).
#define APSQ_EXCLUDES(...) \
  APSQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define APSQ_RETURN_CAPABILITY(x) APSQ_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: the function's locking is correct for reasons the
/// analysis cannot see (e.g. per-thread ownership). Use sparingly; every
/// use is a place the static story leans on a comment.
#define APSQ_NO_THREAD_SAFETY_ANALYSIS \
  APSQ_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace apsq {

/// std::mutex as a Clang capability. Same codegen, but fields tagged
/// APSQ_GUARDED_BY(mu_) on one of these are statically checked.
class APSQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() APSQ_ACQUIRE() { mu_.lock(); }
  void unlock() APSQ_RELEASE() { mu_.unlock(); }
  bool try_lock() APSQ_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;  ///< CondVar::wait needs the raw handle
  std::mutex mu_;
};

/// Scoped lock over Mutex (the std::lock_guard of this layer). The
/// analysis treats construction as acquisition and destruction as
/// release, so a guarded access inside the scope type-checks.
class APSQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) APSQ_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() APSQ_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. wait() requires the caller to
/// already hold the mutex (normally via a MutexLock in the same scope):
/// it adopts the held lock for the duration of the wait and releases
/// ownership back to the caller afterwards, so the caller's scoped lock
/// stays the single release point the analysis sees.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Single un-predicated wait (subject to spurious wakeups): the caller
  /// re-checks its condition in a `while` loop *in its own body*, where
  /// guarded reads are visible to the analysis — the reason this layer
  /// favours manual wait loops over predicate lambdas (which cannot carry
  /// a REQUIRES annotation before C++23).
  void wait(Mutex& mu) APSQ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // hand ownership back to the caller's scope
  }

  /// Blocks until `pred()` holds; `mu` is released while blocked and held
  /// again whenever `pred` runs and when wait returns (std::condition_
  /// variable semantics).
  template <typename Pred>
  void wait(Mutex& mu, Pred pred) APSQ_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, pred);
    lock.release();  // hand ownership back to the caller's scope
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace apsq
