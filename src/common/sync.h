// met::sync — annotated, model-checkable synchronization primitives.
//
// Every lock-protected subsystem (the hybrid index's drain handoff, the obs
// registry, LSM stats publishing, the guard layer, the server) uses these
// wrappers instead of the raw std types, for two reasons:
//
//   1. Static analysis. The wrappers carry clang thread-safety capability
//      attributes (common/thread_annotations.h), so `GUARDED_BY(mu_)` on a
//      member plus `-Wthread-safety -Werror` turns an unguarded access into
//      a build break. The raw std types are invisible to the analysis on
//      libstdc++ (no attributes), which is exactly how silent guard gaps
//      creep in. tools/lint_rules.py bans raw std::mutex members in src/.
//
//   2. Deterministic model checking. Each operation is a yield point for the
//      met::race schedule explorer (race/hook.h): under a scheduler, lock
//      ownership is *modeled* (the real mutex stays unlocked so a descheduled
//      holder cannot wedge the run) and every acquire/release/atomic access
//      becomes a replayable scheduling decision. On production threads the
//      hook is a thread-local load plus a never-taken branch.
//
// The CondVar wrapper degrades to a re-check loop under a scheduler — the
// waiter is not scheduled again until another thread has acted — and uses
// the real condition_variable otherwise. sync::Atomic<T> mirrors the std::atomic<T> surface 1:1.
#ifndef MET_COMMON_SYNC_H_
#define MET_COMMON_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.h"
#include "race/hook.h"

namespace met::sync {

/// Annotated exclusive mutex (std::mutex + capability attributes + race
/// yield points). Use MutexLock for scope-bound acquisition.
class MET_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MET_ACQUIRE() {
    if (race::ModelAcquire(this, "mutex.lock")) return;
    m_.lock();
  }

  void unlock() MET_RELEASE() {
    if (race::ModelRelease(this, "mutex.unlock")) return;
    m_.unlock();
  }

  /// The wrapped std::mutex, for interop (CondVar's real-thread wait path).
  /// Never lock it directly — that would bypass both the analysis and the
  /// model-checker's lock table.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// RAII exclusive lock on a Mutex.
class MET_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MET_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() MET_RELEASE_GENERIC() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The underlying annotated mutex — CondVar::Wait needs it.
  Mutex& mutex() MET_RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  Mutex& mu_;
};

/// Condition variable paired with sync::Mutex. Under a race scheduler the
/// wait degrades to an unlock/wait-point/relock loop: the waiter is parked
/// until another thread has acted, then re-checks its predicate (a wait no
/// one can end is reported as a deadlock). On production threads it is a
/// plain std::condition_variable wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until pred() holds; mu must be held on entry and is held again
  /// on return (released while waiting, as usual).
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) MET_REQUIRES(mu) {
    if (race::UnderScheduler()) {
      while (!pred()) {
        mu.unlock();
        race::WaitPoint("condvar.wait");
        mu.lock();
      }
      return;
    }
    // The caller locked `mu` through the wrapper, so the native mutex is
    // held by this thread; adopt it for the wait, then release ownership
    // back to the wrapper's scope guard.
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native, pred);
    native.release();
  }

  void NotifyAll() {
    if (race::UnderScheduler()) return;
    cv_.notify_all();
  }

 private:
  std::condition_variable cv_;
};

/// Drop-in std::atomic<T> with a scheduling decision before every access.
/// Use for atomics that participate in a cross-thread protocol (handoff
/// flags, shutdown flags); plain metric counters can
/// stay std::atomic — their interleavings are not protocol-relevant.
template <typename T>
class Atomic {
 public:
  Atomic() noexcept = default;
  constexpr Atomic(T v) noexcept : a_(v) {}  // NOLINT(runtime/explicit)
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    race::YieldPoint("atomic.load");
    return a_.load(mo);
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    race::YieldPoint("atomic.store");
    a_.store(v, mo);
  }

  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    race::YieldPoint("atomic.exchange");
    return a_.exchange(v, mo);
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    race::YieldPoint("atomic.cas");
    return a_.compare_exchange_strong(expected, desired, mo);
  }

  T fetch_add(T n, std::memory_order mo = std::memory_order_seq_cst) {
    race::YieldPoint("atomic.fetch_add");
    return a_.fetch_add(n, mo);
  }

  T fetch_sub(T n, std::memory_order mo = std::memory_order_seq_cst) {
    race::YieldPoint("atomic.fetch_sub");
    return a_.fetch_sub(n, mo);
  }

 private:
  std::atomic<T> a_;
};

}  // namespace met::sync

#endif  // MET_COMMON_SYNC_H_
