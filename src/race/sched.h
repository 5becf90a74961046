// met::race — deterministic schedule exploration for the concurrent serving
// path (loom/CHESS-style stateless model checking).
//
// A Scheduler runs N *virtual threads* (real OS threads, but cooperatively
// scheduled: exactly one runs at a time). Every operation on the annotated
// sync primitives (common/sync.h: mutex acquire/release, atomic load/store,
// condition-variable waits) is a *yield point*: the paused thread
// hands control back and the scheduler decides who performs the next atomic
// action. A whole execution is therefore determined by its choice sequence
// (the Trace), which makes every failure replayable bit-for-bit.
//
// Exploration modes:
//   - ExploreExhaustive: depth-first enumeration of all schedules whose
//     preemption count stays within SchedulerOptions::preemption_bound
//     (CHESS's guarantee: most concurrency bugs need very few preemptions).
//   - ExploreRandom: seeded-random schedules, for depth beyond the bound.
//   - Replay: re-run one recorded Trace (e.g. from a CI artifact).
//
// Invariant checking: a per-step callback runs on the orchestrating thread
// after every scheduled action *while all virtual threads are parked at
// yield-point boundaries* — it may read shared state freely (production
// threads bypass the modeled locks, and plain code between yield points has
// fully executed). Virtual-thread code reports violations via race::Fail(),
// which aborts the execution and surfaces the trace; the callback can throw
// race::FailureError directly.
//
// Model limits: interleavings are explored at sequential consistency; weak
// memory effects are TSan's and the seq_cst discipline's problem, not ours.
// Real std::thread spawns inside explored code are not scheduled — explored
// workloads must run background work on a virtual thread of their own (the
// hybrid workload routes HybridIndex's drain there through a check::TestAccess
// hook) or synchronously.
#ifndef MET_RACE_SCHED_H_
#define MET_RACE_SCHED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "race/hook.h"

namespace met::race {

namespace internal {
struct SchedulerImpl;
}

/// Thrown by race::Fail() on a virtual thread (and catchable from a step
/// callback) to abort the current execution with a diagnosable message.
struct FailureError {
  std::string message;
};

struct SchedulerOptions {
  /// Per-execution decision budget; exceeding it reports a livelock.
  int max_steps = 20000;
  /// Maximum preemptions for exhaustive exploration (<0 = unbounded). A
  /// preemption is a switch away from a thread that could have continued.
  int preemption_bound = 2;
  /// When the explicit prefix is exhausted: false = run the current thread
  /// until it blocks or finishes (non-preemptive tail, the CHESS default);
  /// true = draw tail choices from `seed`.
  bool random_tail = false;
  uint64_t seed = 0;
};

/// A schedule: the thread index chosen at each scheduling decision.
struct Trace {
  std::vector<int> choices;

  std::string ToString() const;  // "1,0,0,1,..."
  static bool FromString(const std::string& s, Trace* out);
};

/// One execution's outcome plus the per-decision metadata the exhaustive
/// explorer needs to enumerate sibling schedules.
struct RunResult {
  bool failed = false;
  std::string failure;
  Trace trace;
  int steps = 0;
  /// Per decision: bitmask of threads that were enabled (runnable and not
  /// waiting on a modeled lock held by someone else).
  std::vector<uint32_t> enabled_masks;
  /// Per decision: the thread that performed the previous action (-1 at the
  /// first decision). A choice != running_before while running_before was
  /// enabled is a preemption.
  std::vector<int> running_before;
};

class Scheduler {
 public:
  using ThreadFn = std::function<void()>;
  static constexpr int kMaxThreads = 32;

  explicit Scheduler(const SchedulerOptions& options);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Executes one schedule: decisions follow `prefix`, then the options'
  /// tail policy. `step_check` (optional) runs after every decision with all
  /// virtual threads parked.
  RunResult Run(std::vector<ThreadFn> threads, const std::vector<int>& prefix,
                const std::function<void()>& step_check = nullptr);

 private:
  std::unique_ptr<internal::SchedulerImpl> impl_;
};

struct ExploreResult {
  uint64_t executions = 0;
  uint64_t decisions = 0;  // total scheduling decisions across executions
  bool failed = false;
  std::string failure;
  Trace failing_trace;
  /// True when the schedule space (under the preemption bound) was fully
  /// enumerated; false when max_executions cut exploration short.
  bool complete = false;
};

/// Exhaustively enumerates schedules within options.preemption_bound.
/// `make_threads` must build fresh state and thread closures per execution
/// (executions are independent; determinism across calls is required —
/// warm up lazily-initialized globals before the first call).
/// `post_check` (optional) runs after each execution with every virtual
/// thread joined (full quiescence — the place for whole-state validators
/// like ValidateImpl); a FailureError thrown from it fails that execution
/// with its trace attached.
ExploreResult ExploreExhaustive(
    const std::function<std::vector<Scheduler::ThreadFn>()>& make_threads,
    const SchedulerOptions& options, uint64_t max_executions = 1'000'000,
    const std::function<void()>& step_check = nullptr,
    const std::function<void()>& post_check = nullptr);

/// `runs` seeded-random executions (seed, seed+1, ...). Stops at the first
/// failure.
ExploreResult ExploreRandom(
    const std::function<std::vector<Scheduler::ThreadFn>()>& make_threads,
    const SchedulerOptions& options, uint64_t runs, uint64_t seed,
    const std::function<void()>& step_check = nullptr,
    const std::function<void()>& post_check = nullptr);

/// Re-executes one recorded schedule (deterministic replay of a failure).
RunResult Replay(
    const std::function<std::vector<Scheduler::ThreadFn>()>& make_threads,
    const Trace& trace, const SchedulerOptions& options,
    const std::function<void()>& step_check = nullptr,
    const std::function<void()>& post_check = nullptr);

}  // namespace met::race

#endif  // MET_RACE_SCHED_H_
