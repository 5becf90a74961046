#include "race/sched.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "common/assert.h"

namespace met::race {

namespace internal {

constinit thread_local VThread* tls_vthread = nullptr;

/// Thrown out of a yield point to unwind a virtual thread when the execution
/// is being abandoned (failure elsewhere, livelock, deadlock).
struct AbortRun {};

struct VThread {
  SchedulerImpl* sched = nullptr;
  int index = 0;
  std::thread th;

  // Handshake: exactly one of {scheduler, this thread} runs at a time.
  // `parked` means the thread is paused at a yield point (or finished);
  // `granted` means the scheduler has handed it the next step.
  std::mutex m;
  std::condition_variable cv;
  bool granted = false;
  bool parked = false;
  bool finished = false;

  // Acquire intent: when non-null the thread's next action is acquiring the
  // modeled lock at `blocked_on`; the scheduler treats the thread as
  // disabled while that lock is unavailable.
  const void* blocked_on = nullptr;
  // Condition-variable waiter: disabled until another thread acts.
  bool waiting = false;

  const char* last_point = "start";
};

}  // namespace internal

using internal::AbortRun;
using internal::VThread;

namespace {

/// Modeled lock state (sync primitives under a scheduler never lock their
/// real mutex; ownership lives here).
struct LockState {
  int owner = -1;  // vthread index, -1 = none
};

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// Scheduler implementation
// ---------------------------------------------------------------------------

namespace internal {

struct SchedulerImpl {
  SchedulerOptions opts;
  std::vector<std::unique_ptr<VThread>> vthreads;
  std::map<const void*, LockState> locks;

  bool aborting = false;
  bool failed = false;
  std::string failure;

  explicit SchedulerImpl(const SchedulerOptions& o) : opts(o) {}

  // ---- handshake (called from the orchestrating thread) ----

  void WaitParked(VThread* t) {
    std::unique_lock<std::mutex> l(t->m);
    t->cv.wait(l, [t] { return t->parked; });
  }

  void Grant(VThread* t) {
    {
      std::lock_guard<std::mutex> l(t->m);
      t->parked = false;
      t->granted = true;
    }
    t->cv.notify_all();
    WaitParked(t);
  }

  // ---- called from virtual threads ----

  void Park(VThread* t) {
    std::unique_lock<std::mutex> l(t->m);
    t->parked = true;
    t->cv.notify_all();
    t->cv.wait(l, [t] { return t->granted; });
    t->granted = false;
  }

  void Yield(VThread* t, const char* what) {
    if (aborting) {
      // Unwind at the first post-abort yield — but never by throwing while
      // another exception is already unwinding this stack (lock releases in
      // destructors hit this path); those become no-ops.
      if (std::uncaught_exceptions() == 0) throw AbortRun{};
      return;
    }
    t->last_point = what;
    Park(t);
    if (aborting && std::uncaught_exceptions() == 0) throw AbortRun{};
  }

  void Acquire(VThread* t, const void* addr, const char* what) {
    if (aborting) {
      if (std::uncaught_exceptions() == 0) throw AbortRun{};
      return;
    }
    t->blocked_on = addr;
    Yield(t, what);  // granted only once the lock is available
    LockState& ls = locks[addr];
    MET_ASSERT(ls.owner == -1, "race::Scheduler granted an unavailable lock");
    ls.owner = t->index;
    t->blocked_on = nullptr;
  }

  void Release(VThread* t, const void* addr, const char* what) {
    if (aborting) return;  // lock table is discarded with the run
    Yield(t, what);
    LockState& ls = locks[addr];
    MET_ASSERT(ls.owner == t->index, "modeled unlock by non-owner");
    ls.owner = -1;
  }

  void Wait(VThread* t, const char* what) {
    t->waiting = true;
    Yield(t, what);  // granted only after another thread has acted
  }

  void ReportFailure(std::string msg) {
    if (!failed) {
      failed = true;
      failure = std::move(msg);
    }
  }

  // ---- scheduling ----

  bool Enabled(const VThread& t) {
    if (t.finished || t.waiting) return false;
    if (t.blocked_on != nullptr) {
      auto it = locks.find(t.blocked_on);
      if (it != locks.end() && it->second.owner != -1) return false;
    }
    return true;
  }

  uint32_t EnabledMask() {
    uint32_t mask = 0;
    for (const auto& t : vthreads)
      if (Enabled(*t)) mask |= 1u << t->index;
    return mask;
  }

  bool AllFinished() {
    for (const auto& t : vthreads)
      if (!t->finished) return false;
    return true;
  }

  /// Drains every unfinished thread after a failure/abort decision: grants
  /// each in turn; its next yield throws AbortRun and the thread unwinds.
  void AbortRemaining() {
    aborting = true;
    for (auto& t : vthreads) {
      for (;;) {
        bool done;
        {
          std::lock_guard<std::mutex> l(t->m);
          done = t->finished;
        }
        if (done) break;
        Grant(t.get());
      }
    }
  }
};

void YieldSlow(VThread* t, const char* what) { t->sched->Yield(t, what); }

void AcquireSlow(VThread* t, const void* addr, const char* what) {
  t->sched->Acquire(t, addr, what);
}

void ReleaseSlow(VThread* t, const void* addr, const char* what) {
  t->sched->Release(t, addr, what);
}

void WaitSlow(VThread* t, const char* what) { t->sched->Wait(t, what); }

}  // namespace internal

void Fail(const char* format, ...) {
  char buf[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  if (internal::tls_vthread != nullptr) throw FailureError{buf};
  std::fprintf(stderr, "race::Fail outside a scheduler: %s\n", buf);
  std::fflush(stderr);
  std::abort();
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : impl_(std::make_unique<internal::SchedulerImpl>(options)) {}

Scheduler::~Scheduler() = default;

RunResult Scheduler::Run(std::vector<ThreadFn> threads,
                         const std::vector<int>& prefix,
                         const std::function<void()>& step_check) {
  MET_ASSERT(threads.size() <= static_cast<size_t>(kMaxThreads));
  internal::SchedulerImpl& s = *impl_;
  s.vthreads.clear();
  s.locks.clear();
  s.aborting = false;
  s.failed = false;
  s.failure.clear();

  RunResult result;

  for (size_t i = 0; i < threads.size(); ++i) {
    auto vt = std::make_unique<VThread>();
    vt->sched = this->impl_.get();
    vt->index = static_cast<int>(i);
    s.vthreads.push_back(std::move(vt));
  }
  for (size_t i = 0; i < threads.size(); ++i) {
    VThread* t = s.vthreads[i].get();
    ThreadFn fn = std::move(threads[i]);
    t->th = std::thread([t, fn = std::move(fn)] {
      internal::tls_vthread = t;
      try {
        t->sched->Park(t);  // wait for the first grant
        fn();
      } catch (const FailureError& e) {
        t->sched->ReportFailure(e.message);
      } catch (const AbortRun&) {
        // execution abandoned; unwind silently
      }
      internal::tls_vthread = nullptr;
      {
        std::lock_guard<std::mutex> l(t->m);
        t->finished = true;
        t->parked = true;
      }
      t->cv.notify_all();
    });
    s.WaitParked(t);
  }

  uint64_t rng = s.opts.seed;
  int running = -1;
  bool livelock = false;
  bool deadlock = false;

  while (!s.AllFinished()) {
    if (s.failed) break;
    uint32_t enabled = s.EnabledMask();
    if (enabled == 0) {
      deadlock = true;
      break;
    }
    int choice;
    size_t d = result.trace.choices.size();
    if (d < prefix.size() && prefix[d] >= 0 &&
        prefix[d] < static_cast<int>(threads.size()) &&
        (enabled & (1u << prefix[d])) != 0) {
      choice = prefix[d];
    } else if (s.opts.random_tail) {
      int n = __builtin_popcount(enabled);
      int pick = static_cast<int>(SplitMix64(&rng) % static_cast<uint64_t>(n));
      choice = 0;
      for (int b = 0; b < kMaxThreads; ++b) {
        if (enabled & (1u << b)) {
          if (pick == 0) {
            choice = b;
            break;
          }
          --pick;
        }
      }
    } else if (running >= 0 && (enabled & (1u << running)) != 0) {
      choice = running;  // non-preemptive tail: keep the current thread
    } else {
      choice = __builtin_ctz(enabled);
    }

    result.enabled_masks.push_back(enabled);
    result.running_before.push_back(running);
    result.trace.choices.push_back(choice);
    ++result.steps;

    s.Grant(s.vthreads[choice].get());
    running = choice;
    // Whatever `choice` just did may have changed another waiter's
    // predicate: every other waiter gets to re-check it.
    for (auto& t : s.vthreads)
      if (t->index != choice) t->waiting = false;

    if (!s.failed && step_check) {
      try {
        step_check();
      } catch (const FailureError& e) {
        s.ReportFailure(e.message);
      }
    }
    if (result.steps > s.opts.max_steps) {
      livelock = true;
      break;
    }
  }

  if (s.failed || livelock || deadlock) s.AbortRemaining();
  for (auto& t : s.vthreads) t->th.join();

  if (s.failed) {
    result.failed = true;
    result.failure = s.failure;
  } else if (livelock) {
    result.failed = true;
    result.failure = "step budget exhausted (livelock or unbounded wait)";
  } else if (deadlock) {
    std::ostringstream os;
    os << "deadlock: no runnable thread (";
    for (const auto& t : s.vthreads)
      if (!t->finished)
        os << "t" << t->index << " blocked at " << t->last_point << "; ";
    os << ")";
    result.failed = true;
    result.failure = os.str();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

std::string Trace::ToString() const {
  std::string out;
  for (size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(choices[i]);
  }
  return out;
}

bool Trace::FromString(const std::string& s, Trace* out) {
  out->choices.clear();
  if (s.empty()) return true;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t next = s.find(',', pos);
    if (next == std::string::npos) next = s.size();
    try {
      out->choices.push_back(std::stoi(s.substr(pos, next - pos)));
    } catch (...) {
      return false;
    }
    pos = next + 1;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Exploration drivers
// ---------------------------------------------------------------------------

namespace {

/// Default (non-preemptive) choice at a decision: continue the previous
/// thread if it is enabled, else the lowest-index enabled thread.
int DefaultChoice(uint32_t enabled, int running) {
  if (running >= 0 && (enabled & (1u << running)) != 0) return running;
  return __builtin_ctz(enabled);
}

/// Alternatives at a decision in canonical order: default first, then the
/// remaining enabled threads by index.
std::vector<int> AlternativesAt(uint32_t enabled, int running) {
  std::vector<int> alts;
  int def = DefaultChoice(enabled, running);
  alts.push_back(def);
  for (int b = 0; b < Scheduler::kMaxThreads; ++b)
    if ((enabled & (1u << b)) != 0 && b != def) alts.push_back(b);
  return alts;
}

bool IsPreemption(uint32_t enabled, int running, int choice) {
  return running >= 0 && choice != running &&
         (enabled & (1u << running)) != 0;
}

/// Runs the quiescent post-execution check; a FailureError folds into `r`
/// with the execution's trace (so the schedule that produced the bad final
/// state is replayable like any mid-run violation).
void ApplyPostCheck(const std::function<void()>& post_check, RunResult* r) {
  if (r->failed || !post_check) return;
  try {
    post_check();
  } catch (const FailureError& e) {
    r->failed = true;
    r->failure = e.message;
  }
}

}  // namespace

ExploreResult ExploreExhaustive(
    const std::function<std::vector<Scheduler::ThreadFn>()>& make_threads,
    const SchedulerOptions& options, uint64_t max_executions,
    const std::function<void()>& step_check,
    const std::function<void()>& post_check) {
  ExploreResult out;
  std::vector<int> prefix;
  SchedulerOptions opts = options;
  opts.random_tail = false;

  while (out.executions < max_executions) {
    Scheduler sched(opts);
    RunResult r = sched.Run(make_threads(), prefix, step_check);
    ApplyPostCheck(post_check, &r);
    ++out.executions;
    out.decisions += static_cast<uint64_t>(r.steps);
    if (r.failed) {
      out.failed = true;
      out.failure = r.failure;
      out.failing_trace = r.trace;
      return out;
    }

    // Backtrack: deepest decision with an untried alternative that stays
    // within the preemption bound. Alternatives are explored in the
    // canonical order of AlternativesAt, so "next after the one taken".
    size_t depth = r.trace.choices.size();
    std::vector<int> preempts_before(depth + 1, 0);
    for (size_t i = 0; i < depth; ++i) {
      preempts_before[i + 1] =
          preempts_before[i] +
          (IsPreemption(r.enabled_masks[i], r.running_before[i],
                        r.trace.choices[i])
               ? 1
               : 0);
    }

    bool advanced = false;
    for (size_t i = depth; i-- > 0;) {
      std::vector<int> alts =
          AlternativesAt(r.enabled_masks[i], r.running_before[i]);
      size_t taken = 0;
      while (taken < alts.size() && alts[taken] != r.trace.choices[i]) ++taken;
      for (size_t a = taken + 1; a < alts.size(); ++a) {
        bool preempts = IsPreemption(r.enabled_masks[i], r.running_before[i],
                                     alts[a]);
        if (options.preemption_bound >= 0 && preempts &&
            preempts_before[i] >= options.preemption_bound)
          continue;
        prefix.assign(r.trace.choices.begin(),
                      r.trace.choices.begin() + static_cast<long>(i));
        prefix.push_back(alts[a]);
        advanced = true;
        break;
      }
      if (advanced) break;
    }
    if (!advanced) {
      out.complete = true;
      return out;
    }
  }
  return out;  // complete stays false: budget cut exploration short
}

ExploreResult ExploreRandom(
    const std::function<std::vector<Scheduler::ThreadFn>()>& make_threads,
    const SchedulerOptions& options, uint64_t runs, uint64_t seed,
    const std::function<void()>& step_check,
    const std::function<void()>& post_check) {
  ExploreResult out;
  SchedulerOptions opts = options;
  opts.random_tail = true;
  for (uint64_t i = 0; i < runs; ++i) {
    opts.seed = seed + i;
    Scheduler sched(opts);
    RunResult r = sched.Run(make_threads(), {}, step_check);
    ApplyPostCheck(post_check, &r);
    ++out.executions;
    out.decisions += static_cast<uint64_t>(r.steps);
    if (r.failed) {
      out.failed = true;
      out.failure = r.failure;
      out.failing_trace = r.trace;
      return out;
    }
  }
  out.complete = true;
  return out;
}

RunResult Replay(
    const std::function<std::vector<Scheduler::ThreadFn>()>& make_threads,
    const Trace& trace, const SchedulerOptions& options,
    const std::function<void()>& step_check,
    const std::function<void()>& post_check) {
  SchedulerOptions opts = options;
  opts.random_tail = false;
  Scheduler sched(opts);
  RunResult r = sched.Run(make_threads(), trace.choices, step_check);
  ApplyPostCheck(post_check, &r);
  return r;
}

}  // namespace met::race
