// Clang thread-safety (capability) analysis annotations for met.
//
// Shared mutable state is annotated at its declaration with the capability
// that guards it, and every function that needs a capability declares so in
// its signature — so an unguarded access is a *compile error* under
// `clang -Wthread-safety -Werror` (the thread-safety CI job), not a flaky
// test. On compilers without the attribute (gcc) every macro expands to
// nothing; the annotations are pure documentation there.
//
// Conventions (see DESIGN.md, "Concurrency correctness"):
//   - Members:     `T x_ MET_GUARDED_BY(mu_);` — all reads need mu_ held
//                  (shared suffices), all writes need it held exclusively.
//   - Pointees:    `T* p_ MET_PT_GUARDED_BY(mu_);` — the pointer itself is
//                  free, the pointed-to data is guarded.
//   - Functions:   `void FooLocked() MET_REQUIRES(mu_);` — caller must hold
//                  mu_ exclusively (MET_REQUIRES_SHARED for readers).
//   - Lock types:  MET_CAPABILITY on the class, MET_ACQUIRE/MET_RELEASE on
//                  its lock/unlock methods, MET_SCOPED_CAPABILITY on RAII
//                  guards (see common/sync.h for the annotated primitives).
//   - Escapes:     MET_NO_THREAD_SAFETY_ANALYSIS only on functions whose
//                  safety argument the analysis cannot express (a static
//                  helper whose callers hold the lock); each use carries a
//                  comment saying why.
//
// Protocols that hand data between threads through sync::Atomic flags (the
// hybrid index's drain handoff) are checked dynamically by the met::race
// schedule explorer (src/race/), and statically only in shape: published
// pointees are const (enforced by tools/lint_rules.py).
#ifndef MET_COMMON_THREAD_ANNOTATIONS_H_
#define MET_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define MET_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define MET_THREAD_ANNOTATION_(x)  // no-op on gcc/msvc
#endif

// --- data annotations ---

#define MET_GUARDED_BY(x) MET_THREAD_ANNOTATION_(guarded_by(x))
#define MET_PT_GUARDED_BY(x) MET_THREAD_ANNOTATION_(pt_guarded_by(x))

// --- function annotations ---

#define MET_REQUIRES(...) \
  MET_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define MET_REQUIRES_SHARED(...) \
  MET_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define MET_ACQUIRE(...) \
  MET_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define MET_ACQUIRE_SHARED(...) \
  MET_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define MET_RELEASE(...) \
  MET_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define MET_RELEASE_SHARED(...) \
  MET_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define MET_RELEASE_GENERIC(...) \
  MET_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define MET_TRY_ACQUIRE(...) \
  MET_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define MET_TRY_ACQUIRE_SHARED(...) \
  MET_THREAD_ANNOTATION_(try_acquire_shared_capability(__VA_ARGS__))
#define MET_EXCLUDES(...) MET_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define MET_ASSERT_CAPABILITY(x) \
  MET_THREAD_ANNOTATION_(assert_capability(x))
#define MET_ASSERT_SHARED_CAPABILITY(x) \
  MET_THREAD_ANNOTATION_(assert_shared_capability(x))
#define MET_RETURN_CAPABILITY(x) MET_THREAD_ANNOTATION_(lock_returned(x))

// --- type annotations ---

#define MET_CAPABILITY(x) MET_THREAD_ANNOTATION_(capability(x))
#define MET_SCOPED_CAPABILITY MET_THREAD_ANNOTATION_(scoped_lockable)

// --- escape hatch ---

#define MET_NO_THREAD_SAFETY_ANALYSIS \
  MET_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // MET_COMMON_THREAD_ANNOTATIONS_H_
