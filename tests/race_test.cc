// met::race — deterministic schedule exploration tests, plus the pinned
// regression tests for the two real guarding gaps the thread-safety
// annotation pass surfaced (obs registry Find-vs-Get, LsmStats dump reads).
//
// This file is in the TSan CI shard (ctest -R '...|race'): the regression
// tests at the bottom run real threads so TSan re-checks the fixes on every
// sanitizer build.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "check/hybrid_handoff_model.h"
#include "common/sync.h"
#include "lsm/lsm.h"
#include "obs/obs.h"
#include "race/sched.h"

namespace {

using met::race::ExploreExhaustive;
using met::race::ExploreResult;
using met::race::FailureError;
using met::race::Replay;
using met::race::RunResult;
using met::race::Scheduler;
using met::race::SchedulerOptions;
using met::race::Trace;

// ---------------------------------------------------------------------------
// Scheduler semantics
// ---------------------------------------------------------------------------

// A modeled sync::Mutex really provides mutual exclusion under every
// explored schedule: two threads increment a plain int under the lock, and
// no interleaving loses an update.
TEST(RaceSched, ModeledMutexExclusion) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = -1;  // unbounded: the space is tiny

  auto mu = std::make_shared<met::sync::Mutex>();
  auto counter = std::make_shared<int>(0);
  auto make = [mu, counter] {
    *counter = 0;
    auto work = [mu, counter] {
      for (int i = 0; i < 2; ++i) {
        met::sync::MutexLock l(*mu);
        // Plain (non-yielding) RMW: exclusivity comes from the modeled lock.
        *counter = *counter + 1;
      }
    };
    return std::vector<Scheduler::ThreadFn>{work, work};
  };
  auto post = [counter] {
    if (*counter != 4)
      throw FailureError{"lost update under modeled mutex: " +
                         std::to_string(*counter)};
  };

  ExploreResult res = ExploreExhaustive(make, opts, 100000, nullptr, post);
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;
  EXPECT_GT(res.executions, 1u);  // lock/unlock yields create real branching
}

// An UNPROTECTED read-modify-write over sync::Atomic is a racy increment;
// bounded exploration must find the lost update, and the recorded trace
// must replay to the identical failure.
TEST(RaceSched, LostUpdateFoundAndReplays) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  auto counter = std::make_shared<met::sync::Atomic<int>>(0);
  auto make = [counter] {
    counter->store(0);
    auto work = [counter] {
      int v = counter->load();  // yield point before each atomic op
      counter->store(v + 1);
    };
    return std::vector<Scheduler::ThreadFn>{work, work};
  };
  auto post = [counter] {
    if (counter->load() != 2)
      throw FailureError{"lost update: " + std::to_string(counter->load())};
  };

  ExploreResult res = ExploreExhaustive(make, opts, 100000, nullptr, post);
  ASSERT_TRUE(res.failed) << "exploration missed the textbook lost update";
  EXPECT_NE(res.failure.find("lost update"), std::string::npos) << res.failure;

  // Deterministic replay: the same trace reproduces the same violation.
  RunResult replay1 = Replay(make, res.failing_trace, opts, nullptr, post);
  RunResult replay2 = Replay(make, res.failing_trace, opts, nullptr, post);
  ASSERT_TRUE(replay1.failed);
  ASSERT_TRUE(replay2.failed);
  EXPECT_EQ(replay1.failure, res.failure);
  EXPECT_EQ(replay2.failure, res.failure);
  EXPECT_EQ(replay1.trace.ToString(), replay2.trace.ToString());

  // Trace round-trips through its text form (the CI-artifact format).
  Trace parsed;
  ASSERT_TRUE(Trace::FromString(res.failing_trace.ToString(), &parsed));
  EXPECT_EQ(parsed.choices, res.failing_trace.choices);
}

// ---------------------------------------------------------------------------
// The serving path under the scheduler
// ---------------------------------------------------------------------------

// A condition-variable wait that needs the other thread is explored, not
// spun: the waiter is parked until the other thread acts, so the
// non-preemptive default schedule still completes.
TEST(RaceSched, CondVarWaitParksUntilOtherThreadActs) {
  met::obs::WarmUp();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  struct State {
    met::sync::Mutex mu;
    met::sync::CondVar cv;
    met::sync::Atomic<bool> ready{false};
  };
  auto st = std::make_shared<std::unique_ptr<State>>();
  auto make = [st] {
    *st = std::make_unique<State>();
    State* s = st->get();
    return std::vector<Scheduler::ThreadFn>{
        [s] {
          met::sync::MutexLock l(s->mu);
          s->cv.Wait(s->mu, [s] { return s->ready.load(); });
        },
        [s] {
          {
            met::sync::MutexLock l(s->mu);
            s->ready.store(true);
          }
          s->cv.NotifyAll();
        },
    };
  };
  ExploreResult res = ExploreExhaustive(make, opts, 200000);
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(res.failed) << res.failure;
}

// Bounded-exhaustive freeze/drain/adopt on the real index, with the
// background drain on its own virtual thread: committed keys stay visible at
// every interleaving and the merge-state validator holds after every step.
TEST(RaceSched, FreezeDrainAdoptExhaustive) {
  met::obs::WarmUp();
  (void)met::HybridObsMetrics::Get();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  auto model = std::make_shared<met::check::HybridHandoffModel>(false);
  ExploreResult res = ExploreExhaustive(
      [model] { return model->MakeThreads(); }, opts, 200000,
      [model] { model->StepCheck(); }, [model] { model->FinalCheck(); });
  EXPECT_TRUE(res.complete) << "schedule space not exhausted within budget";
  EXPECT_FALSE(res.failed)
      << res.failure << "\ntrace: " << res.failing_trace.ToString();
  EXPECT_GT(res.executions, 100u);
}

// Seeded injection: a drain that flags itself done before storing its result
// must be caught, with a trace that replays to the same violation (the
// model_check CI job depends on this failing loudly).
TEST(RaceSched, DrainDoneBeforeResultCaught) {
  met::obs::WarmUp();
  (void)met::HybridObsMetrics::Get();
  SchedulerOptions opts;
  opts.preemption_bound = 2;

  auto model = std::make_shared<met::check::HybridHandoffModel>(true);
  auto make = [model] { return model->MakeThreads(); };
  auto step = [model] { model->StepCheck(); };
  ExploreResult broken = ExploreExhaustive(make, opts, 200000, step);
  ASSERT_TRUE(broken.failed) << "done-before-result escaped exploration";
  EXPECT_NE(broken.failure.find("before storing its result"),
            std::string::npos)
      << broken.failure;

  RunResult replay = Replay(make, broken.failing_trace, opts, step);
  ASSERT_TRUE(replay.failed);
  EXPECT_EQ(replay.failure, broken.failure);
}

// ---------------------------------------------------------------------------
// Pinned regressions for the guarding gaps the annotation pass surfaced
// (real threads: TSan re-checks these on every sanitizer run)
// ---------------------------------------------------------------------------

// Gap #1: MetricsRegistry::Find* walked the name maps WITHOUT the registry
// mutex while concurrent Get* calls could rehash them. Find* now locks mu_.
TEST(RaceRegression, MetricsRegistryFindDuringGet) {
  auto& reg = met::obs::MetricsRegistry::Global();
  constexpr int kNames = 64;

  std::thread inserter([&reg] {
    for (int round = 0; round < 50; ++round)
      for (int i = 0; i < kNames; ++i)
        reg.GetCounter("race.regression.c" + std::to_string(round * kNames +
                                                            i))
            ->Add(1);
  });
  std::thread finder([&reg] {
    for (int round = 0; round < 50; ++round)
      for (int i = 0; i < kNames; ++i) {
        // Mix of hits and misses; the walk must be safe against concurrent
        // map growth either way.
        (void)reg.FindCounter("race.regression.c" + std::to_string(i));
        (void)reg.FindGauge("race.regression.never");
        (void)reg.FindHistogram("race.regression.never");
      }
  });
  inserter.join();
  finder.join();

  EXPECT_NE(reg.FindCounter("race.regression.c0"), nullptr);
}

// Gap #2: a registry dump runs on whatever thread asks for it while the
// owning thread keeps writing and reading its LsmTree. The tree counts each
// event into its process-wide atomic counter as it happens, and a dump reads
// only those (never the owner-only LsmStats), so a dump storm concurrent
// with a write/read workload must be clean.
TEST(RaceRegression, LsmStatsDumpDuringWrites) {
  met::LsmOptions opts;
  opts.dir = ::testing::TempDir() + "race_lsm_dump";
  opts.memtable_bytes = 16u << 10;  // small: force flushes => stats churn
  opts.filter = met::LsmFilterType::kBloom;
  met::LsmTree tree(opts);

  std::atomic<bool> stop{false};
  std::thread dumper([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string out;
      met::obs::MetricsRegistry::Global().DumpJson(&out);
      EXPECT_FALSE(out.empty());
    }
  });

  for (int i = 0; i < 4000; ++i) {
    // Two-step concat: gcc 12's -Wrestrict false-positives on operator+
    // with a string literal here (PR105651).
    std::string key = std::to_string(i);
    key.insert(0, 1, 'k');
    ASSERT_TRUE(tree.Put(key, std::string(64, 'v')).ok());
    if (i % 16 == 0) {
      EXPECT_TRUE(tree.Lookup(key));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  dumper.join();

  EXPECT_TRUE(tree.Lookup("k0"));
  EXPECT_TRUE(tree.Lookup("k3999"));
}

}  // namespace
