/// \file thread_annotations.h
/// \brief Clang Thread Safety Analysis macros (no-ops on other compilers).
///
/// The repo's concurrency contract — mutex-serialized telemetry and run
/// ledger, the shard-claiming thread pool — is enforced three
/// ways: TSan at runtime (CI `sanitize-thread`), CP_AUDIT mutation
/// discipline in audit builds, and, with these macros, clang's static
/// thread-safety analysis at compile time (`-DCOVERPACK_THREAD_SAFETY=ON`,
/// which adds `-Wthread-safety -Werror=thread-safety`). Annotate shared
/// state with `CP_GUARDED_BY(mutex_)` and lock-discipline functions with
/// `CP_REQUIRES` / `CP_ACQUIRE` / `CP_RELEASE`; see util/mutex.h for the
/// annotated `Mutex` / `MutexLock` wrappers the analysis understands
/// (std::mutex and std::lock_guard carry no annotations under libstdc++,
/// so guarded state must be locked through the wrappers to be checkable).
///
/// Naming and semantics follow the clang documentation
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html); everything
/// expands to nothing outside clang, so GCC builds are unaffected.

#ifndef COVERPACK_UTIL_THREAD_ANNOTATIONS_H_
#define COVERPACK_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define CP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define CP_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

/// Declares a class to be a capability (a lockable resource). The string
/// names the capability kind in diagnostics, e.g. CP_CAPABILITY("mutex").
#define CP_CAPABILITY(x) CP_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII class whose constructor acquires and destructor
/// releases a capability (MutexLock-style scoped guards).
#define CP_SCOPED_CAPABILITY CP_THREAD_ANNOTATION_(scoped_lockable)

/// A data member readable/writable only while holding the given capability.
#define CP_GUARDED_BY(x) CP_THREAD_ANNOTATION_(guarded_by(x))

/// A pointer member whose *pointee* is protected by the given capability.
#define CP_PT_GUARDED_BY(x) CP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The function must be called with the given capabilities held; they are
/// still held on return.
#define CP_REQUIRES(...) \
  CP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function must be called *without* the given capabilities held
/// (anti-deadlock annotation for functions that acquire them internally).
#define CP_EXCLUDES(...) CP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The function acquires the given capabilities (or `this` when empty) and
/// does not release them before returning.
#define CP_ACQUIRE(...) \
  CP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases the given capabilities (or `this` when empty).
#define CP_RELEASE(...) \
  CP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function attempts to acquire the capability; the first argument is
/// the return value that signals success.
#define CP_TRY_ACQUIRE(...) \
  CP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// The function returns a reference to the given capability (accessor
/// pattern for exposing a member mutex).
#define CP_RETURN_CAPABILITY(x) CP_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the function is race-free by other means.
#define CP_NO_THREAD_SAFETY_ANALYSIS \
  CP_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // COVERPACK_UTIL_THREAD_ANNOTATIONS_H_
