// met::guard tests: net-fault spec parsing + injector determinism, the
// cost-aware CoDel admission controller (levels, cost caps, retry-after),
// the idempotency dedup window, and the EBR stall watchdog gauge.
#include <cstdint>
#include <vector>

#include "guard/admission.h"
#include "guard/dedup.h"
#include "guard/metrics.h"
#include "guard/net_fault.h"
#include "gtest/gtest.h"

namespace met {
namespace {

using guard::AdmissionController;
using guard::AdmissionOptions;
using guard::DedupWindow;
using guard::NetFaultInjector;
using guard::NetFaultSpec;

// ---- net-fault spec -----------------------------------------------------

TEST(NetFaultSpecTest, ParsesFullGrammar) {
  NetFaultSpec spec;
  ASSERT_TRUE(NetFaultSpec::Parse(
                  "seed=9,torn=0.25,rst=0.125,stall=0.5,stall_ms=7,"
                  "short=0.75,dup=1",
                  &spec)
                  .ok());
  EXPECT_EQ(9u, spec.seed);
  EXPECT_DOUBLE_EQ(0.25, spec.torn);
  EXPECT_DOUBLE_EQ(0.125, spec.rst);
  EXPECT_DOUBLE_EQ(0.5, spec.stall);
  EXPECT_EQ(7u, spec.stall_ms);
  EXPECT_DOUBLE_EQ(0.75, spec.short_read);
  EXPECT_DOUBLE_EQ(1.0, spec.dup);
  EXPECT_TRUE(spec.enabled());

  // ToString round-trips through Parse.
  NetFaultSpec again;
  ASSERT_TRUE(NetFaultSpec::Parse(spec.ToString(), &again).ok());
  EXPECT_DOUBLE_EQ(spec.torn, again.torn);
  EXPECT_DOUBLE_EQ(spec.dup, again.dup);
  EXPECT_EQ(spec.stall_ms, again.stall_ms);
}

TEST(NetFaultSpecTest, RejectsMalformedSpecs) {
  NetFaultSpec spec;
  EXPECT_FALSE(NetFaultSpec::Parse("bogus=1", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn=1.5", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn=-0.1", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn=abc", &spec).ok());
}

TEST(NetFaultSpecTest, DefaultSpecIsDisabled) {
  NetFaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  NetFaultInjector inj(spec);
  EXPECT_FALSE(inj.enabled());
}

TEST(NetFaultInjectorTest, SameSeedReplaysIdentically) {
  NetFaultSpec spec;
  ASSERT_TRUE(NetFaultSpec::Parse(
                  "seed=3,torn=0.1,rst=0.05,stall=0.1,stall_ms=2,short=0.3,"
                  "dup=0.2",
                  &spec)
                  .ok());
  NetFaultInjector a(spec);
  NetFaultInjector b(spec);
  for (int i = 0; i < 2000; ++i) {
    size_t clamp_a = 0, clamp_b = 0;
    EXPECT_EQ(a.RollWrite(128, &clamp_a), b.RollWrite(128, &clamp_b));
    EXPECT_EQ(clamp_a, clamp_b);
    EXPECT_EQ(a.RollStallNs(), b.RollStallNs());
    EXPECT_EQ(a.ClampRead(4096), b.ClampRead(4096));
    EXPECT_EQ(a.RollDuplicate(), b.RollDuplicate());
  }
  EXPECT_EQ(a.Counts().Total(), b.Counts().Total());
  EXPECT_GT(a.Counts().Total(), 0u) << "probabilities armed, nothing fired";
  EXPECT_EQ(a.Counts().torn, b.Counts().torn);
  EXPECT_EQ(a.Counts().short_read, b.Counts().short_read);
}

TEST(NetFaultInjectorTest, TornClampIsAProperPrefix) {
  NetFaultSpec spec;
  spec.seed = 2;
  spec.torn = 1.0;  // every write tears
  NetFaultInjector inj(spec);
  for (int i = 0; i < 200; ++i) {
    size_t clamp = 0;
    ASSERT_EQ(NetFaultInjector::WriteFault::kTorn, inj.RollWrite(64, &clamp));
    EXPECT_GE(clamp, 1u);
    EXPECT_LT(clamp, 64u);
  }
}

// ---- admission control --------------------------------------------------

TEST(AdmissionTest, CostModelOrdersRequestClasses) {
  EXPECT_LT(guard::kCostGet, guard::kCostWrite);
  EXPECT_LT(guard::kCostWrite, guard::CostMultiGet(64));
  // 1024 is serve::kMaxScanLimit; a full-width scan must out-cost a wide
  // multiget so level-1 shedding drops scans first.
  EXPECT_LT(guard::CostMultiGet(64), guard::CostScan(1024));
  EXPECT_EQ(1u, guard::CostMultiGet(0));  // empty still costs admission
  EXPECT_GE(guard::CostScan(0), 1u);
}

TEST(AdmissionTest, CostCapacityShedsWithActionableHint) {
  AdmissionOptions o;
  o.cost_capacity = 10;
  AdmissionController a(o);

  uint32_t hint = 0;
  EXPECT_EQ(AdmissionController::Decision::kAdmit, a.Admit(8, 8, &hint));
  a.OnEnqueue(8);
  EXPECT_EQ(8u, a.queued_cost());
  // 8 queued + 8 more > 10: shed, with a hint in [1ms, 1s].
  EXPECT_EQ(AdmissionController::Decision::kShed, a.Admit(8, 8, &hint));
  EXPECT_GE(hint, 1u);
  EXPECT_LE(hint, 1000u);
  // A cheap GET still fits.
  EXPECT_EQ(AdmissionController::Decision::kAdmit, a.Admit(1, 1, nullptr));
}

/// Feeds one complete CoDel interval whose minimum queue delay is
/// `min_delay_ns`, advancing *now past the interval boundary.
void FeedInterval(AdmissionController* a, uint64_t min_delay_ns,
                  uint64_t* now) {
  a->OnDequeue(0, min_delay_ns, *now);
  *now += a->options().interval_ns + 1;
  a->OnDequeue(0, min_delay_ns, *now);
  *now += 1;
}

TEST(AdmissionTest, StandingDelayEscalatesAndRecoveryDeescalates) {
  AdmissionOptions o;
  o.delay_target_ns = 5 * 1000 * 1000;
  AdmissionController a(o);
  uint64_t now = 1;
  const uint64_t high = 20 * 1000 * 1000;  // 20ms standing delay
  const uint64_t low = 1 * 1000 * 1000;    // 1ms: under half the target

  EXPECT_EQ(0, a.overload_level());
  FeedInterval(&a, high, &now);
  EXPECT_EQ(1, a.overload_level());
  // Level 1: heavy scans shed, writes and small multigets survive.
  EXPECT_EQ(AdmissionController::Decision::kShed,
            a.Admit(guard::CostScan(1024), guard::CostScan(1024), nullptr));
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::kCostWrite, guard::kCostWrite, nullptr));
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::CostMultiGet(8), guard::CostMultiGet(8), nullptr));

  FeedInterval(&a, high, &now);
  EXPECT_EQ(2, a.overload_level());
  // Level 2: writes shed too; single GETs survive.
  EXPECT_EQ(AdmissionController::Decision::kShed,
            a.Admit(guard::kCostWrite, guard::kCostWrite, nullptr));
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::kCostGet, guard::kCostGet, nullptr));

  FeedInterval(&a, high, &now);
  EXPECT_EQ(3, a.overload_level());
  FeedInterval(&a, high, &now);
  EXPECT_EQ(3, a.overload_level()) << "level must saturate at kMaxLevel";
  // Level 3: every other GET sheds — a pair of admits must contain one of
  // each, whichever parity the tick counter is on.
  auto first = a.Admit(guard::kCostGet, guard::kCostGet, nullptr);
  auto second = a.Admit(guard::kCostGet, guard::kCostGet, nullptr);
  EXPECT_NE(first, second);

  // The hint tracks the standing delay: 2 * 20ms.
  EXPECT_EQ(40u, a.RetryAfterMs());

  FeedInterval(&a, low, &now);
  EXPECT_EQ(2, a.overload_level());
  FeedInterval(&a, low, &now);
  FeedInterval(&a, low, &now);
  EXPECT_EQ(0, a.overload_level());
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::CostScan(1024), guard::CostScan(1024), nullptr));
}

// ---- dedup window -------------------------------------------------------

TEST(DedupWindowTest, RecordsAndReplaysOutcomes) {
  DedupWindow w(4);
  EXPECT_EQ(nullptr, w.Find(1));
  w.Insert(1, true);
  w.Insert(2, false);
  ASSERT_NE(nullptr, w.Find(1));
  EXPECT_TRUE(*w.Find(1));
  ASSERT_NE(nullptr, w.Find(2));
  EXPECT_FALSE(*w.Find(2));
  EXPECT_EQ(2u, w.size());
}

TEST(DedupWindowTest, EvictsOldestBeyondCapacity) {
  DedupWindow w(3);
  w.Insert(1, true);
  w.Insert(2, true);
  w.Insert(3, true);
  w.Insert(4, true);  // evicts token 1
  EXPECT_EQ(nullptr, w.Find(1));
  EXPECT_NE(nullptr, w.Find(2));
  EXPECT_NE(nullptr, w.Find(4));
  EXPECT_EQ(3u, w.size());
  w.Insert(5, true);  // evicts token 2
  EXPECT_EQ(nullptr, w.Find(2));
  EXPECT_NE(nullptr, w.Find(3));
}

TEST(DedupWindowTest, TokenZeroAndZeroCapacityAreInert) {
  DedupWindow w(2);
  w.Insert(0, true);
  EXPECT_EQ(nullptr, w.Find(0));
  EXPECT_EQ(0u, w.size());

  DedupWindow off(0);
  off.Insert(7, true);
  EXPECT_EQ(nullptr, off.Find(7));
}

}  // namespace
}  // namespace met
