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
//
// Exit codes: 0 = explored clean, 2 = violation found (trace printed),
// 1 = usage / setup error.
//
// Usage:
//   model_check --workload=hybrid [--bound=2] [--max-exec=200000]
//               [--random=N --seed=S] [--replay=0,1,0,...] [--inject]

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "check/hybrid_handoff_model.h"
#include "hybrid/hybrid.h"
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
                 "usage: model_check --workload=hybrid "
                 "[--bound=N] [--max-exec=N] [--random=N --seed=S] "
                 "[--replay=trace] [--inject]\n");
    return false;
  }
  return true;
}

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
  std::fprintf(stderr, "unknown workload: %s\n", cli.workload.c_str());
  return 1;
}
