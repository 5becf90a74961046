// Yield-point hook connecting the annotated sync primitives (common/sync.h)
// to the met::race deterministic schedule explorer (race/sched.h).
//
// Production threads have `tls_vthread == nullptr`, so every hook below is a
// single thread-local load plus a never-taken branch — the instrumented
// primitives cost nothing measurable outside a model-checking run. Virtual
// threads spawned by race::Scheduler carry a non-null handle; for them each
// hook is a scheduling decision: the scheduler picks which virtual thread
// performs its next atomic action, making the whole interleaving replayable
// from a recorded choice sequence.
//
// The hooks model sequentially-consistent interleaving semantics (like CHESS
// and loom's default): one virtual thread runs at a time, every sync-level
// action is a yield point, and plain code between yield points executes
// atomically with respect to the schedule. Weak-memory reorderings are out of
// scope — TSan covers that axis.
#ifndef MET_RACE_HOOK_H_
#define MET_RACE_HOOK_H_

namespace met::race {

namespace internal {

struct VThread;  // race/sched.cc

// Non-null iff the current OS thread is a scheduler-controlled virtual
// thread. Defined in race/sched.cc (linked into libmet). constinit tells
// every including TU the variable needs no dynamic initialization, so it is
// read directly rather than through a TLS init wrapper.
extern constinit thread_local VThread* tls_vthread;

// Pause at a scheduling decision; returns when the scheduler grants the next
// step. `what` labels the yield point in traces (must be a string literal).
void YieldSlow(VThread* t, const char* what);

// Modeled lock operations: under a scheduler the *real* mutex stays
// unlocked — ownership lives in the scheduler's lock table so a descheduled
// holder cannot wedge the run. Acquire blocks the virtual thread (it becomes
// unschedulable) until the modeled lock is free.
void AcquireSlow(VThread* t, const void* addr, const char* what);
void ReleaseSlow(VThread* t, const void* addr, const char* what);

// Pause as a condition-variable waiter: the thread stays unschedulable until
// another virtual thread has acted (any action may change its predicate).
void WaitSlow(VThread* t, const char* what);

}  // namespace internal

/// True when the calling thread is controlled by a race::Scheduler.
inline bool UnderScheduler() { return internal::tls_vthread != nullptr; }

/// Scheduling decision before one atomic action (atomic load/store/rmw).
/// No-op on production threads.
inline void YieldPoint(const char* what) {
  if (internal::VThread* t = internal::tls_vthread) {
    internal::YieldSlow(t, what);
  }
}

/// Scheduling decision for a condition-variable waiter whose predicate is
/// false: it is not scheduled again until some other thread has acted, so a
/// waiter cannot spin the schedule. No-op on production threads.
inline void WaitPoint(const char* what) {
  if (internal::VThread* t = internal::tls_vthread) {
    internal::WaitSlow(t, what);
  }
}

/// Modeled acquire/release for sync::Mutex. Returns false on production
/// threads (caller must then use the real primitive).
inline bool ModelAcquire(const void* addr, const char* what) {
  if (internal::VThread* t = internal::tls_vthread) {
    internal::AcquireSlow(t, addr, what);
    return true;
  }
  return false;
}

inline bool ModelRelease(const void* addr, const char* what) {
  if (internal::VThread* t = internal::tls_vthread) {
    internal::ReleaseSlow(t, addr, what);
    return true;
  }
  return false;
}

/// Reports an invariant violation from inside virtual-thread code and
/// aborts the current execution (throws race::FailureError under a
/// scheduler; calls MET_ASSERT-style abort otherwise). Defined in sched.cc.
[[noreturn]] void Fail(const char* format, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

}  // namespace met::race

#endif  // MET_RACE_HOOK_H_
