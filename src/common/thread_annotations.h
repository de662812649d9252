#ifndef HOTMAN_COMMON_THREAD_ANNOTATIONS_H_
#define HOTMAN_COMMON_THREAD_ANNOTATIONS_H_

/// Clang thread-safety-analysis attributes (-Wthread-safety).
///
/// These make lock contracts machine-checked: a member guarded with
/// HOTMAN_GUARDED_BY(mu_) cannot be touched without holding mu_, and a
/// method marked HOTMAN_REQUIRES(mu_) cannot be called without it. Under
/// GCC (which lacks the analysis) every macro expands to nothing, so the
/// annotations are pure documentation there and contracts are enforced by
/// the clang-tidy/thread-safety CI job instead.
///
/// Concurrency model (see DESIGN.md "Concurrency model"):
///  - docstore/, rest/, workload/ and common/ may use real threads and must
///    annotate every mutex-protected class with these macros;
///  - sim/, cluster/ and gossip/ are deterministic single-threaded
///    event-loop code and must not use mutexes or threads at all
///    (enforced by tools/lint_hotman.py).

#if defined(__clang__) && (!defined(SWIG))
#define HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

/// Marks a type as a lockable capability (std::mutex already is one).
#define HOTMAN_CAPABILITY(x) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Data member readable/writable only while holding the given mutex.
#define HOTMAN_GUARDED_BY(x) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given mutex.
#define HOTMAN_PT_GUARDED_BY(x) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Function that must be called with the given mutex(es) held.
#define HOTMAN_REQUIRES(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Function that must be called with at least shared (reader) access to the
/// given mutex(es); exclusive access satisfies it too.
#define HOTMAN_REQUIRES_SHARED(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function that must be called with the given mutex(es) NOT held
/// (it acquires them itself; calling under the lock would deadlock).
#define HOTMAN_EXCLUDES(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Function that acquires the given mutex(es) and does not release them.
#define HOTMAN_ACQUIRE(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function that acquires shared (reader) access and does not release it.
#define HOTMAN_ACQUIRE_SHARED(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))

/// Function that releases mutex(es) acquired earlier.
#define HOTMAN_RELEASE(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Function that releases shared (reader) access acquired earlier.
#define HOTMAN_RELEASE_SHARED(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

/// Function that acquires the mutex only when it returns `value`.
#define HOTMAN_TRY_ACQUIRE(value, ...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(value, __VA_ARGS__))

/// Function that acquires shared access only when it returns `value`.
#define HOTMAN_TRY_ACQUIRE_SHARED(value, ...)     \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(             \
      try_acquire_shared_capability(value, __VA_ARGS__))

/// RAII type that acquires in its constructor and releases in its
/// destructor (std::lock_guard / std::scoped_lock shape).
#define HOTMAN_SCOPED_CAPABILITY \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Declares a global lock order: this mutex must be acquired before the
/// listed ones. tools/analyze/hotman_analyze.py folds these edges into its
/// lock-order graph and reports any cycle (potential deadlock).
#define HOTMAN_ACQUIRED_BEFORE(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(acquired_before(__VA_ARGS__))

/// Declares a global lock order: this mutex must be acquired after the
/// listed ones (the mirror of HOTMAN_ACQUIRED_BEFORE).
#define HOTMAN_ACQUIRED_AFTER(...) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(acquired_after(__VA_ARGS__))

/// Function whose lock usage is deliberately invisible to the analysis
/// (use sparingly; every use needs a comment saying why).
#define HOTMAN_NO_THREAD_SAFETY_ANALYSIS \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

/// Function returning a reference to the mutex that guards its class.
#define HOTMAN_RETURN_CAPABILITY(x) \
  HOTMAN_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

#endif  // HOTMAN_COMMON_THREAD_ANNOTATIONS_H_
