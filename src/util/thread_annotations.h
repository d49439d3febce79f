// Clang thread-safety capability annotations (docs/debugging.md "Static
// lock-discipline analysis").
//
// The PR 8 locking discipline — "fault slow path holds the AS gate shared plus exactly
// one shard", "TranslateLockFree only inside a PtEpoch read section", "shrinker/verifier/
// offline hold the MmGate exclusive" — is enforced at runtime by lockdep and TSan, both
// of which need the buggy interleaving to actually execute. These macros express the same
// contracts as Clang *capability* attributes so that under `clang++ -Wthread-safety`
// (the `thread-safety` preset / ci gate, -Werror) a violation is a compile error on every
// build, not a 2 a.m. sanitizer report.
//
// Usage surface (see src/util/mutex.h for the annotated primitives):
//
//   class ODF_CAPABILITY("mutex") Mutex { ... };          a lockable capability type
//   class ODF_SCOPED_CAPABILITY MutexLock { ... };        RAII acquire/release
//   int count_ ODF_GUARDED_BY(mutex_);                    field needs mutex_ held
//   void Compact() ODF_REQUIRES(mutex_);                  caller must hold exclusively
//   uint64_t Gen() const ODF_REQUIRES_SHARED(gate_);      caller must hold at least shared
//   void Drain() ODF_EXCLUDES(epoch_);                    caller must NOT hold
//
// On a non-Clang compiler (the container default is GCC) every macro expands to nothing:
// the annotations are zero-cost documentation and the build is byte-identical. Under
// Clang they expand to the attributes the -Wthread-safety analysis consumes; a Clang too
// old to know the capability attribute is a hard configure error (below) so the CI gate
// can never silently run with the macros compiled out.
#ifndef ODF_SRC_UTIL_THREAD_ANNOTATIONS_H_
#define ODF_SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(ODF_NO_THREAD_SAFETY_ANNOTATIONS)

#if !defined(__has_attribute) || !__has_attribute(capability) || \
    !__has_attribute(acquire_capability)
// The ci/check.sh thread-safety gate requires the annotations to be REAL under Clang:
// a Clang that would expand them to nothing must fail at configure time, not pass the
// gate vacuously. Define ODF_NO_THREAD_SAFETY_ANNOTATIONS to build anyway (unverified).
#error "This Clang lacks thread-safety capability attributes; the -Wthread-safety gate would be vacuous. Define ODF_NO_THREAD_SAFETY_ANNOTATIONS to opt out."
#endif

#define ODF_THREAD_ANNOTATION(x) __attribute__((x))

#else  // non-Clang (GCC) or explicit opt-out: annotations compile to nothing.

#define ODF_THREAD_ANNOTATION(x)

#endif

// --- Type annotations -------------------------------------------------------

// Marks a class as a capability (lockable resource). The string names the kind in
// diagnostics ("mutex", "shared_mutex", "epoch", ...).
#define ODF_CAPABILITY(x) ODF_THREAD_ANNOTATION(capability(x))

// Marks an RAII class whose constructor acquires and destructor releases a capability.
#define ODF_SCOPED_CAPABILITY ODF_THREAD_ANNOTATION(scoped_lockable)

// --- Data annotations -------------------------------------------------------

// The field may only be read with the capability held (shared suffices) and only be
// written with it held exclusively.
#define ODF_GUARDED_BY(x) ODF_THREAD_ANNOTATION(guarded_by(x))

// Like ODF_GUARDED_BY but for the pointee of a pointer/smart-pointer field.
#define ODF_PT_GUARDED_BY(x) ODF_THREAD_ANNOTATION(pt_guarded_by(x))

// Lock-order edges, checkable statically: this capability must be acquired after/before
// the listed ones.
#define ODF_ACQUIRED_AFTER(...) ODF_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define ODF_ACQUIRED_BEFORE(...) ODF_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

// --- Function annotations ---------------------------------------------------

// Caller must hold the capability exclusively / at least shared on entry; the function
// neither acquires nor releases it.
#define ODF_REQUIRES(...) ODF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ODF_REQUIRES_SHARED(...) \
  ODF_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

// The function acquires the capability (caller must not hold it) / releases it (caller
// must hold it). The _SHARED variants are the reader side; ODF_RELEASE_GENERIC releases
// either mode (scoped-guard destructors).
#define ODF_ACQUIRE(...) ODF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ODF_ACQUIRE_SHARED(...) ODF_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define ODF_RELEASE(...) ODF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ODF_RELEASE_SHARED(...) ODF_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define ODF_RELEASE_GENERIC(...) ODF_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

// Conditional acquisition: the capability is held only when the function returned
// `success` (first argument).
#define ODF_TRY_ACQUIRE(...) ODF_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define ODF_TRY_ACQUIRE_SHARED(...) \
  ODF_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

// Caller must NOT hold the capability (non-reentrancy / deadlock-avoidance contract,
// e.g. PtEpoch::Drain must not run inside a read section).
#define ODF_EXCLUDES(...) ODF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// The function returns a reference to the named capability (lets attribute expressions
// name locks through accessors).
#define ODF_RETURN_CAPABILITY(x) ODF_THREAD_ANNOTATION(lock_returned(x))

// Opt-out for one function. Every use outside src/util/mutex.h must carry a justifying
// comment and appear in the allowlist in docs/debugging.md (≤ 5 entries, audited by the
// thread-safety CI gate).
#define ODF_NO_THREAD_SAFETY_ANALYSIS ODF_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // ODF_SRC_UTIL_THREAD_ANNOTATIONS_H_
