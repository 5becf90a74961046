// met::race model checker — bounded-exhaustive schedule exploration of the
// serving path's concurrency (see src/race/sched.h and DESIGN.md,
// "Concurrency correctness").
//
// Workloads:
//   hybrid  The owner<->drain handoff of a HybridBTree with background
//           merges (check/hybrid_handoff_model.h): the owner's insert
//           freezes and hands the drain to a second virtual thread; the
//           owner keeps reading, each read may adopt, and committed keys
//           must never vanish. The merge-state validator runs after every
//           scheduled action. With --inject the drain flags itself done
//           before storing its result; exploration must catch it and print
//           the replayable trace.
//   wal     Two writers appending to one LsmWal under a harness mutex plus
//           a group-sync thread; afterwards the log is replayed and the
//           record count checked against what the writers appended.
//
// Exit codes: 0 = explored clean, 2 = violation found (trace printed),
// 1 = usage / setup error.
//
// Usage:
//   model_check --workload=hybrid|wal [--bound=2] [--max-exec=200000]
//               [--random=N --seed=S] [--replay=0,1,0,...] [--inject]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/hybrid_handoff_model.h"
#include "common/sync.h"
#include "hybrid/hybrid.h"
#include "io/io.h"
#include "lsm/wal.h"
#include "obs/obs.h"
#include "race/sched.h"

namespace {

using met::race::ExploreExhaustive;
using met::race::ExploreRandom;
using met::race::ExploreResult;
using met::race::RunResult;
using met::race::Scheduler;
using met::race::SchedulerOptions;
using met::race::Trace;

struct Cli {
  std::string workload;
  int bound = 2;
  uint64_t max_exec = 200000;
  uint64_t random_runs = 0;  // 0 = exhaustive
  uint64_t seed = 1;
  bool inject = false;
  std::string replay;  // non-empty = replay this trace instead of exploring
};

bool ParseCli(int argc, char** argv, Cli* cli) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&a](const char* key) -> const char* {
      size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      cli->workload = v;
    } else if (const char* v = val("--bound=")) {
      cli->bound = std::atoi(v);
    } else if (const char* v = val("--max-exec=")) {
      cli->max_exec = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--random=")) {
      cli->random_runs = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--seed=")) {
      cli->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = val("--replay=")) {
      cli->replay = v;
    } else if (a == "--inject") {
      cli->inject = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (cli->workload.empty()) {
    std::fprintf(stderr,
                 "usage: model_check --workload=hybrid|wal "
                 "[--bound=N] [--max-exec=N] [--random=N --seed=S] "
                 "[--replay=trace] [--inject]\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// wal: group commit under a harness mutex, replay-count oracle
// ---------------------------------------------------------------------------

struct WalWorkload {
  std::string dir;
  int execution = 0;

  std::unique_ptr<met::LsmWal> wal;
  std::unique_ptr<met::sync::Mutex> mu;
  int appended = 0;  // guarded by *mu

  std::vector<Scheduler::ThreadFn> MakeThreads() {
    std::string path = dir + "/model_check_wal_" + std::to_string(execution++);
    auto& env = met::io::Env::Posix();
    (void)env.Remove(path);  // stale file from an aborted earlier run
    wal = std::make_unique<met::LsmWal>(env, path);
    met::io::Status s = wal->Open();
    if (!s.ok()) throw met::race::FailureError{"wal open: " + s.ToString()};
    mu = std::make_unique<met::sync::Mutex>();
    appended = 0;

    auto* w = wal.get();
    auto* m = mu.get();
    int* count = &appended;
    auto writer = [w, m, count](const char* key) {
      return [w, m, count, key] {
        for (int i = 0; i < 2; ++i) {
          met::sync::MutexLock l(*m);
          std::string k = std::string(key) + std::to_string(i);
          met::io::Status s = w->Append(k, "v");
          if (!s.ok())
            met::race::Fail("wal append failed: %s", s.ToString().c_str());
          ++*count;
        }
      };
    };
    return {
        writer("a"),
        writer("b"),
        // Group-sync thread: acks whatever has been appended so far.
        [w, m] {
          met::sync::MutexLock l(*m);
          met::io::Status s = w->Sync();
          if (!s.ok())
            met::race::Fail("wal sync failed: %s", s.ToString().c_str());
        },
    };
  }

  void FinalCheck() {
    met::io::Status s = wal->Sync();
    if (!s.ok()) throw met::race::FailureError{"wal final sync failed"};
    std::string path = wal->path();
    s = wal->Close();
    if (!s.ok()) throw met::race::FailureError{"wal close failed"};
    uint64_t replayed = 0;
    bool torn = false;
    s = met::LsmWal::Replay(
        met::io::Env::Posix(), path, [](std::string_view, std::string_view) {},
        &replayed, &torn);
    if (!s.ok()) throw met::race::FailureError{"wal replay failed"};
    if (torn) throw met::race::FailureError{"wal replay saw a torn tail"};
    if (replayed != static_cast<uint64_t>(appended))
      throw met::race::FailureError{
          "wal replay count " + std::to_string(replayed) + " != appended " +
          std::to_string(appended)};
    (void)met::io::Env::Posix().Remove(path);  // scratch file cleanup
  }
};

// ---------------------------------------------------------------------------
// driver
// ---------------------------------------------------------------------------

void PrintFailure(const std::string& failure, const Trace& trace,
                  const Cli& cli) {
  std::fprintf(stderr, "VIOLATION: %s\n", failure.c_str());
  std::fprintf(stderr, "schedule:  %s\n", trace.ToString().c_str());
  std::fprintf(stderr,
               "replay:    model_check --workload=%s --bound=%d%s "
               "--replay=%s\n",
               cli.workload.c_str(), cli.bound, cli.inject ? " --inject" : "",
               trace.ToString().c_str());
}

template <typename Workload>
int Drive(Workload* w, const Cli& cli,
          const std::function<void()>& step_check) {
  SchedulerOptions opts;
  opts.preemption_bound = cli.bound;

  auto make = [w] { return w->MakeThreads(); };
  // Runs quiescent after each execution; FailureError here fails the
  // execution with its (replayable) trace attached.
  auto post = [w] { w->FinalCheck(); };

  if (!cli.replay.empty()) {
    Trace trace;
    if (!Trace::FromString(cli.replay, &trace)) {
      std::fprintf(stderr, "bad --replay trace\n");
      return 1;
    }
    RunResult r = met::race::Replay(make, trace, opts, step_check, post);
    if (r.failed) {
      PrintFailure(r.failure, r.trace, cli);
      return 2;
    }
    std::printf("replay: %d decisions, no violation\n", r.steps);
    return 0;
  }

  ExploreResult res =
      cli.random_runs > 0
          ? ExploreRandom(make, opts, cli.random_runs, cli.seed, step_check,
                          post)
          : ExploreExhaustive(make, opts, cli.max_exec, step_check, post);
  if (res.failed) {
    PrintFailure(res.failure, res.failing_trace, cli);
    std::fprintf(stderr, "after %" PRIu64 " executions\n", res.executions);
    return 2;
  }

  std::printf(
      "%s: %" PRIu64 " executions, %" PRIu64
      " decisions, preemption bound %d, %s — no violations\n",
      cli.workload.c_str(), res.executions, res.decisions, cli.bound,
      res.complete ? "complete" : "budget-capped");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!ParseCli(argc, argv, &cli)) return 1;

  // Warm up lazily-initialized globals (obs singletons, metric registration)
  // OUTSIDE the scheduler: a first-touch inside an explored region would
  // make executions non-deterministic across the DFS.
  met::obs::WarmUp();
  (void)met::HybridObsMetrics::Get();

  if (cli.workload == "hybrid") {
    {  // warm the index's own statics with one unscheduled, bug-free run
      met::check::HybridHandoffModel warm(/*inject=*/false);
      auto fns = warm.MakeThreads();
      std::thread drain(fns[1]);
      fns[0]();
      drain.join();
      warm.FinalCheck();
    }
    met::check::HybridHandoffModel w(cli.inject);
    return Drive(&w, cli, [&w] { w.StepCheck(); });
  }
  if (cli.workload == "wal") {
    WalWorkload w;
    const char* tmp = std::getenv("TMPDIR");
    w.dir = tmp != nullptr ? tmp : "/tmp";
    {
      auto warm = w.MakeThreads();
      for (auto& fn : warm) fn();
      w.FinalCheck();
    }
    return Drive(&w, cli, nullptr);
  }
  std::fprintf(stderr, "unknown workload: %s\n", cli.workload.c_str());
  return 1;
}
