// Tests for the met::obs observability layer: histogram quantile accuracy
// against a sorted-vector oracle, registry lookup-by-name semantics, JSON
// exporter well-formedness, scoped timing, and trace-log ring behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/obs.h"

namespace met {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator (objects, arrays, strings, numbers, literals) used
// to check exporter output without external dependencies.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool Literal(const char* lit) {
    size_t len = std::strlen(lit);
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, QuantileMatchesSortedOracleOn100kSamples) {
  // Mixed-scale samples: latency-like values spanning 1ns .. ~100ms.
  obs::Histogram hist;
  std::vector<uint64_t> samples;
  samples.reserve(100000);
  Random rng(42);
  for (size_t i = 0; i < 100000; ++i) {
    uint64_t magnitude = 1ull << rng.Uniform(27);  // 1 .. 2^26
    uint64_t v = 1 + rng.Uniform(magnitude);
    samples.push_back(v);
    hist.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  ASSERT_EQ(hist.Count(), samples.size());

  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t target =
        static_cast<uint64_t>(std::ceil(p * static_cast<double>(samples.size())));
    uint64_t oracle = samples[target - 1];
    uint64_t got = hist.Quantile(p);
    // Log-bucket resolution: 16 linear sub-buckets per power of two bounds
    // the relative error by 1/16 (reported value is the bucket midpoint).
    double err = std::abs(static_cast<double>(got) - static_cast<double>(oracle)) /
                 static_cast<double>(oracle);
    EXPECT_LE(err, 1.0 / 16.0 + 1e-9)
        << "p=" << p << " oracle=" << oracle << " got=" << got;
  }
}

TEST(ObsHistogram, ExactInUnitBuckets) {
  obs::Histogram hist;
  for (uint64_t v = 0; v < 16; ++v) hist.Record(v);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 15u);
  EXPECT_EQ(hist.Quantile(0.0), 0u);   // rank 1 = smallest sample (0)
  EXPECT_EQ(hist.Quantile(1.0), 15u);  // exact: unit buckets below 16
  EXPECT_EQ(hist.Count(), 16u);
  EXPECT_EQ(hist.Sum(), 120u);
}

TEST(ObsHistogram, BucketIndexIsMonotone) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < (1ull << 20); v += 997) {
    uint32_t idx = obs::Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev);
    prev = idx;
    EXPECT_LE(obs::Histogram::BucketLow(idx), v);
  }
  EXPECT_LT(obs::Histogram::BucketIndex(~uint64_t{0}),
            obs::Histogram::kNumBuckets);
}

TEST(ObsHistogram, MergeCombinesPopulations) {
  obs::Histogram a, b;
  for (uint64_t v = 1; v <= 1000; ++v) a.Record(v);
  for (uint64_t v = 1001; v <= 2000; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2000u);
  EXPECT_EQ(a.Min(), 1u);
  EXPECT_EQ(a.Max(), 2000u);
  uint64_t p50 = a.Quantile(0.5);
  EXPECT_NEAR(static_cast<double>(p50), 1000.0, 1000.0 / 16.0);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CounterLookupByNameIsStable) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* c1 = reg.GetCounter("test.registry.counter_a");
  obs::Counter* c2 = reg.GetCounter("test.registry.counter_a");
  EXPECT_EQ(c1, c2);  // same name -> same instrument
  c1->Add(41);
  c2->Increment();
  EXPECT_EQ(c1->Value(), 42u);
  EXPECT_EQ(reg.FindCounter("test.registry.counter_a"), c1);
  EXPECT_EQ(reg.FindCounter("test.registry.never_registered"), nullptr);
  EXPECT_NE(reg.GetCounter("test.registry.counter_b"), c1);
}

TEST(ObsRegistry, GaugeAndHistogramLookup) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Gauge* g = reg.GetGauge("test.registry.gauge");
  g->Set(7);
  g->Add(5);
  g->Sub(2);
  EXPECT_EQ(g->Value(), 10);
  EXPECT_EQ(reg.FindGauge("test.registry.gauge"), g);

  obs::Histogram* h = reg.GetHistogram("test.registry.hist");
  h->RecordNanos(123);
  EXPECT_EQ(reg.FindHistogram("test.registry.hist"), h);
  EXPECT_EQ(reg.FindHistogram("test.registry.missing"), nullptr);
  EXPECT_GE(h->Count(), 1u);
}

TEST(ObsRegistry, JsonDumpIsWellFormed) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.json.counter")->Add(3);
  reg.GetGauge("test.json.gauge")->Set(-5);
  auto* h = reg.GetHistogram("test.json.hist");
  for (uint64_t v = 1; v <= 10000; ++v) h->Record(v);

  std::string json;
  reg.DumpJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.json.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  // Umbrella dump (metrics + trace) must also be valid JSON.
  std::string all;
  obs::DumpAllJson(&all);
  EXPECT_TRUE(JsonChecker(all).Valid()) << all;
}

TEST(ObsRegistry, JsonEscapesMetricNames) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("test.json.weird\"name\\with\nescapes")->Increment();
  std::string json;
  reg.DumpJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// ---------------------------------------------------------------------------
// ScopedTimer + TraceLog
// ---------------------------------------------------------------------------

TEST(ObsTrace, ScopedTimerRecordsIntoHistogramAndTraceLog) {
  auto& reg = obs::MetricsRegistry::Global();
  auto* h = reg.GetHistogram("test.trace.span_ns");
  uint64_t spans_before = obs::TraceLog::Global().TotalSpans();
  {
    obs::ScopedTimer t(h, "test.span");
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_GT(h->Sum(), 0u);
  EXPECT_EQ(obs::TraceLog::Global().TotalSpans(), spans_before + 1);
  auto spans = obs::TraceLog::Global().Snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_STREQ(spans.back().name, "test.span");
  EXPECT_EQ(spans.back().duration_nanos, h->Sum());
}

TEST(ObsTrace, RingBufferKeepsMostRecentSpans) {
  obs::TraceLog log(4);
  for (uint64_t i = 0; i < 10; ++i) log.Append("span", i, 1);
  auto spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans.front().start_nanos, 6u);  // oldest retained
  EXPECT_EQ(spans.back().start_nanos, 9u);   // newest
  EXPECT_EQ(log.TotalSpans(), 10u);

  std::string json;
  log.DumpJson(&json);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

TEST(ObsRegistry, CollectorsRunOnEveryDump) {
  auto& reg = obs::MetricsRegistry::Global();
  auto* c = reg.GetCounter("test.collector.synced");
  uint64_t pending = 5;  // stand-in for a value sampled at dump time
  auto id = reg.AddCollector([&] {
    c->Add(pending);
    pending = 0;
  });

  std::string json;
  reg.DumpJson(&json);  // triggers the collector
  EXPECT_EQ(c->Value(), 5u);
  EXPECT_EQ(pending, 0u);
  EXPECT_NE(json.find("\"test.collector.synced\":5"), std::string::npos);

  pending = 2;
  reg.Collect();
  EXPECT_EQ(c->Value(), 7u);

  reg.RemoveCollector(id);
  pending = 100;
  reg.Collect();
  EXPECT_EQ(c->Value(), 7u);  // removed collector no longer runs
}

TEST(ObsRegistry, ResetAllZeroesCountersAndHistograms) {
  auto& reg = obs::MetricsRegistry::Global();
  auto* c = reg.GetCounter("test.reset.counter");
  auto* h = reg.GetHistogram("test.reset.hist");
  c->Add(5);
  h->Record(5);
  reg.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(h->Quantile(0.5), 0u);
}

}  // namespace
}  // namespace met
