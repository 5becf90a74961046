// Tests for met::prof: memory attribution (MemoryBreakdown totals equal
// MemoryBytes for every structure, cross-checked against the process heap
// hook), the tracking allocator, hardware-counter graceful fallback
// (forced via MET_NO_PERF), Chrome trace export, the minimal JSON parser,
// and the bench_diff comparison engine.
//
// This binary links the met_heap_hook OBJECT library (tests/CMakeLists.txt),
// so operator new/delete feed the process heap counters and HeapScope
// measures real allocator traffic.
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "art/art.h"
#include "art/compact_art.h"
#include "bloom/bloom.h"
#include "btree/btree.h"
#include "btree/compact_btree.h"
#include "btree/compressed_btree.h"
#include "btree/prefix_btree.h"
#include "common/index_api.h"
#include "fst/fst.h"
#include "hot/hot.h"
#include "hybrid/hybrid.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"
#include "masstree/compact_masstree.h"
#include "masstree/masstree.h"
#include "obs/obs.h"
#include "prof/bench_diff_core.h"
#include "prof/json_min.h"
#include "prof/prof.h"
#include "skiplist/compact_skiplist.h"
#include "skiplist/skiplist.h"
#include "surf/surf.h"
#include "gtest/gtest.h"

namespace met {
namespace {

// Forces the perf fallback path deterministically for the whole binary
// (PerfCounterSet::Disabled caches on first use, so set the env before any
// test can construct a set).
const bool g_no_perf = [] {
  setenv("MET_NO_PERF", "1", 1);
  return true;
}();

// ---------------------------------------------------------------------------
// MemoryBreakdown tree mechanics
// ---------------------------------------------------------------------------

TEST(MemoryBreakdownTest, TotalsFindFlatten) {
  MemoryBreakdown b("root", 10);
  b.Add("a", 100);
  MemoryBreakdown sub("ignored", 5);
  sub.Add("x", 20);
  b.AddChild("b", sub);
  EXPECT_EQ(b.TotalBytes(), 10u + 100u + 5u + 20u);
  ASSERT_NE(b.Find("a"), nullptr);
  EXPECT_EQ(b.Find("a")->TotalBytes(), 100u);
  ASSERT_NE(b.Find("b"), nullptr);
  EXPECT_EQ(b.Find("b")->name(), "b");  // AddChild re-roots the subtree
  EXPECT_EQ(b.Find("b")->TotalBytes(), 25u);
  EXPECT_EQ(b.Find("nope"), nullptr);

  auto flat = b.Flatten();
  ASSERT_EQ(flat.size(), 4u);  // root, root.a, root.b, root.b.x
  EXPECT_EQ(flat[0].first, "root");
  EXPECT_EQ(flat[0].second, b.TotalBytes());
  EXPECT_EQ(flat[3].first, "root.b.x");
  EXPECT_EQ(flat[3].second, 20u);
}

TEST(MemoryBreakdownTest, JsonRoundTripsThroughParser) {
  MemoryBreakdown b("fst");
  b.Add("louds_dense", 4096);
  b.Add("rank \"lut\"", 128);  // name needing escaping
  std::string json;
  b.AppendJson(&json);
  prof::JsonValue v;
  std::string err;
  ASSERT_TRUE(prof::JsonParser::Parse(json, &v, &err)) << err;
  EXPECT_EQ(v.GetString("name"), "fst");
  EXPECT_EQ(v.GetNumber("bytes"), 4096 + 128);
  ASSERT_TRUE(v.Get("children")->is_array());
  EXPECT_EQ(v.Get("children")->array()[1].GetString("name"), "rank \"lut\"");
}

// ---------------------------------------------------------------------------
// Breakdown totals == MemoryBytes for every structure
// ---------------------------------------------------------------------------

// The concept from common/index_api.h holds for every structure below.
static_assert(HasMemoryBreakdown<BTree<uint64_t>>);
static_assert(HasMemoryBreakdown<BTree<std::string>>);
static_assert(HasMemoryBreakdown<SkipList<uint64_t>>);
static_assert(HasMemoryBreakdown<CompactBTree<uint64_t>>);
static_assert(HasMemoryBreakdown<CompactSkipList<uint64_t>>);
static_assert(HasMemoryBreakdown<CompressedBTree<uint64_t>>);
static_assert(HasMemoryBreakdown<PrefixBTree<>>);
static_assert(HasMemoryBreakdown<Art>);
static_assert(HasMemoryBreakdown<CompactArt>);
static_assert(HasMemoryBreakdown<Hot>);
static_assert(HasMemoryBreakdown<Masstree>);
static_assert(HasMemoryBreakdown<CompactMasstree>);
static_assert(HasMemoryBreakdown<Fst>);
static_assert(HasMemoryBreakdown<Surf>);
static_assert(HasMemoryBreakdown<BloomFilter>);
static_assert(HasMemoryBreakdown<LsmTree>);

template <typename T>
void ExpectBreakdownMatches(const T& t, const char* what) {
  MemoryBreakdown b = t.Breakdown();
  EXPECT_EQ(b.TotalBytes(), t.MemoryBytes()) << what << ":\n" << b.ToString();
  EXPECT_FALSE(b.name().empty()) << what;
  EXPECT_FALSE(b.children().empty()) << what;
}

std::vector<std::string> TestKeys(size_t n) {
  auto keys = GenEmails(n, 42);
  SortUnique(&keys);
  return keys;
}

TEST(BreakdownMatchesTest, DynamicStructures) {
  auto keys = TestKeys(4000);
  auto ints = GenRandomInts(5000, 7);
  SortUnique(&ints);

  BTree<uint64_t> bt;
  for (auto k : ints) bt.Insert(k, k);
  ExpectBreakdownMatches(bt, "btree<u64>");

  BTree<std::string> bts;
  for (size_t i = 0; i < keys.size(); ++i) bts.Insert(keys[i], i);
  ExpectBreakdownMatches(bts, "btree<string>");
  EXPECT_GT(bts.Breakdown().Find("key_heap")->TotalBytes(), 0u);

  SkipList<uint64_t> sl;
  for (auto k : ints) sl.Insert(k, k);
  ExpectBreakdownMatches(sl, "skiplist");

  Art art;
  for (size_t i = 0; i < keys.size(); ++i) art.Insert(keys[i], i);
  ExpectBreakdownMatches(art, "art");

  Masstree mt;
  for (size_t i = 0; i < keys.size(); ++i) mt.Insert(keys[i], i);
  ExpectBreakdownMatches(mt, "masstree");
}

TEST(BreakdownMatchesTest, StaticStructures) {
  auto keys = TestKeys(4000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i + 1;
  auto ints = GenRandomInts(5000, 7);
  SortUnique(&ints);
  std::vector<MergeEntry<uint64_t, uint64_t>> int_entries;
  for (auto k : ints) int_entries.push_back({k, k, false});

  CompactBTree<uint64_t> cbt;
  cbt.Build(std::vector<MergeEntry<uint64_t, uint64_t>>(int_entries));
  ExpectBreakdownMatches(cbt, "compact_btree");

  CompactSkipList<uint64_t> csl;
  csl.Build(std::vector<MergeEntry<uint64_t, uint64_t>>(int_entries));
  ExpectBreakdownMatches(csl, "compact_skiplist");

  CompressedBTree<uint64_t> zbt;
  zbt.Build(std::vector<MergeEntry<uint64_t, uint64_t>>(int_entries));
  ExpectBreakdownMatches(zbt, "compressed_btree");

  std::vector<MergeEntry<std::string, uint64_t>> str_entries;
  for (size_t i = 0; i < keys.size(); ++i)
    str_entries.push_back({keys[i], values[i], false});
  CompactBTree<std::string> cbts;
  cbts.Build(std::move(str_entries));
  ExpectBreakdownMatches(cbts, "compact_btree<string>");

  PrefixBTree pbt;
  pbt.Build(keys, values);
  ExpectBreakdownMatches(pbt, "prefix_btree");

  CompactArt cart;
  cart.Build(keys, values);
  ExpectBreakdownMatches(cart, "compact_art");

  Hot hot;
  hot.Build(keys, values);
  ExpectBreakdownMatches(hot, "hot");

  CompactMasstree cmt;
  cmt.Build(keys, values);
  ExpectBreakdownMatches(cmt, "compact_masstree");

  Fst fst;
  fst.Build(keys, values);
  ExpectBreakdownMatches(fst, "fst");
  // The filter view excludes the value array and carries the LOUDS split.
  MemoryBreakdown fb = fst.FilterBreakdown();
  EXPECT_EQ(fb.TotalBytes() + fst.Breakdown().Find("values")->TotalBytes(),
            fst.MemoryBytes());
  EXPECT_NE(fb.Find("louds_sparse"), nullptr);

  Surf surf;
  surf.Build(keys, SurfConfig::Hash(4));
  ExpectBreakdownMatches(surf, "surf");

  BloomFilter bloom(keys.size(), 10.0);
  for (const auto& k : keys) bloom.Add(k);
  ExpectBreakdownMatches(bloom, "bloom");
}

TEST(BreakdownMatchesTest, LsmTree) {
  LsmOptions opt;
  opt.dir = "/tmp/met_prof_test_lsm";
  opt.memtable_bytes = 32 << 10;
  opt.sstable_target_bytes = 64 << 10;
  opt.level1_bytes = 128 << 10;
  opt.block_cache_blocks = 32;
  opt.filter = LsmFilterType::kBloom;
  LsmTree lsm(opt);
  auto keys = TestKeys(4000);
  for (size_t i = 0; i < keys.size(); ++i)
    ASSERT_TRUE(lsm.Put(keys[i], "value_" + std::to_string(i)).ok());
  ASSERT_TRUE(lsm.Finish().ok());
  // Warm the block cache so its component is non-trivial.
  for (size_t i = 0; i < keys.size(); i += 7) lsm.Lookup(keys[i]);

  MemoryBreakdown b = lsm.Breakdown();
  EXPECT_EQ(b.TotalBytes(), lsm.MemoryBytes()) << b.ToString();
  ASSERT_NE(b.Find("filters"), nullptr);
  EXPECT_EQ(b.Find("filters")->TotalBytes(), lsm.FilterMemoryBytes());
  EXPECT_GT(b.Find("fence_indexes")->TotalBytes(), 0u);
  EXPECT_GT(b.Find("block_cache")->TotalBytes(), 0u);
}

TEST(BreakdownMatchesTest, HybridIndexes) {
  HybridConfig cfg;
  cfg.min_merge_entries = 256;
  HybridBTree<uint64_t> hybrid(cfg);
  for (uint64_t i = 0; i < 5000; ++i)
    hybrid.Insert(i * 2654435761u % 100000, i);
  ASSERT_GT(hybrid.merge_stats().merge_count, 0u);
  MemoryBreakdown hb = hybrid.Breakdown();
  EXPECT_EQ(hb.TotalBytes(), hybrid.MemoryBytes()) << hb.ToString();
  EXPECT_NE(hb.Find("dynamic_stage"), nullptr);
  EXPECT_NE(hb.Find("static_stage"), nullptr);

  // With a background merge in flight the frozen stage and its filter are
  // counted too; only the owner's next call (adopt) moves bytes.
  cfg.background_merge = true;
  HybridBTree<uint64_t> bg(cfg);
  for (uint64_t i = 0; !bg.MergeInFlight(); ++i)
    bg.Insert(i * 2654435761u % 100000, i);
  MemoryBreakdown bb = bg.Breakdown();
  EXPECT_EQ(bb.TotalBytes(), bg.MemoryBytes()) << bb.ToString();
  EXPECT_NE(bb.Find("frozen_stage"), nullptr);
  EXPECT_NE(bb.Find("static_stage"), nullptr);
}

// ---------------------------------------------------------------------------
// Process heap hook
// ---------------------------------------------------------------------------

TEST(HeapHookTest, HookIsActiveInThisBinary) {
  EXPECT_TRUE(prof::HeapHookActive());
  prof::HeapScope scope;
  auto* p = new std::vector<uint64_t>(4096);
  EXPECT_GE(scope.LiveDelta(), static_cast<int64_t>(4096 * 8));
  delete p;
  EXPECT_LT(scope.LiveDelta(), static_cast<int64_t>(4096 * 8));
}

// Reported logical bytes vs bytes the heap actually grew while building.
// CompactBTree stores everything in flat vectors, so the two agree tightly;
// the tolerance absorbs malloc size-class rounding and realloc slack.
TEST(HeapHookTest, BreakdownCrossChecksAgainstHeapGrowth) {
  ASSERT_TRUE(prof::HeapHookActive());
  auto ints = GenRandomInts(100000, 11);
  SortUnique(&ints);
  std::vector<MergeEntry<uint64_t, uint64_t>> entries;
  for (auto k : ints) entries.push_back({k, k, false});

  prof::HeapScope scope;
  auto built = std::make_unique<CompactBTree<uint64_t>>();
  built->Build(std::move(entries));
  int64_t heap_delta = scope.LiveDelta();
  int64_t reported = static_cast<int64_t>(built->Breakdown().TotalBytes());

  EXPECT_GT(reported, 0);
  // The heap must have grown at least as much as the structure claims
  // (capacity terms can't exceed real allocations)...
  EXPECT_GE(heap_delta, reported * 9 / 10);
  // ...and not wildly more (attribution would be missing a component).
  EXPECT_LE(heap_delta, reported * 3 / 2 + (64 << 10));
}

// Same cross-check for a node-allocating structure (BTree news its nodes).
TEST(HeapHookTest, NodeStructureCrossCheck) {
  ASSERT_TRUE(prof::HeapHookActive());
  auto ints = GenRandomInts(100000, 13);
  SortUnique(&ints);

  prof::HeapScope scope;
  auto built = std::make_unique<BTree<uint64_t>>();
  for (auto k : ints) built->Insert(k, k);
  int64_t heap_delta = scope.LiveDelta();
  int64_t reported = static_cast<int64_t>(built->Breakdown().TotalBytes());

  EXPECT_GT(reported, 0);
  EXPECT_GE(heap_delta, reported * 9 / 10);
  EXPECT_LE(heap_delta, reported * 3 / 2 + (64 << 10));
}

// ---------------------------------------------------------------------------
// Hardware counters: forced-fallback path
// ---------------------------------------------------------------------------

TEST(PerfFallbackTest, UnavailableCountersAreGraceful) {
  ASSERT_TRUE(prof::PerfCounterSet::Disabled());  // MET_NO_PERF set above
  prof::PerfCounterSet set;
  EXPECT_FALSE(set.available());
  prof::PerfReading direct = set.Read();
  EXPECT_EQ(direct.valid, 0u);
  EXPECT_FALSE(direct.any());

  prof::PerfScope scope(&set);
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  const prof::PerfReading& r = scope.Stop();
  EXPECT_FALSE(r.any());
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.llc_misses, 0u);
  // Stop is idempotent.
  EXPECT_EQ(&scope.Stop(), &r);

  prof::PerfScope owned;  // owning form also degrades silently
  EXPECT_FALSE(owned.available());
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(TraceExportTest, ProducesLoadableTraceEventJson) {
  obs::TraceLog::Global().Reset();
  {
    obs::ScopedTimer t(nullptr, "prof.test.span");
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  obs::TraceEvent("prof.test.mark");

  std::string json;
  prof::ChromeTraceJson(&json);
  prof::JsonValue doc;
  std::string err;
  ASSERT_TRUE(prof::JsonParser::Parse(json, &doc, &err)) << err;
  const prof::JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  bool saw_span = false, saw_mark = false;
  for (const auto& e : events->array()) {
    if (e.GetString("name") == "prof.test.span") {
      saw_span = true;
      EXPECT_EQ(e.GetString("ph"), "X");
      EXPECT_GE(e.GetNumber("dur"), 0.0);
      EXPECT_NE(e.Get("ts"), nullptr);
      EXPECT_NE(e.Get("tid"), nullptr);
    }
    if (e.GetString("name") == "prof.test.mark") {
      saw_mark = true;
      EXPECT_EQ(e.GetString("ph"), "i");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_mark);
}

TEST(TraceExportTest, WriteChromeTraceToFile) {
  obs::TraceLog::Global().Reset();
  { obs::ScopedTimer t(nullptr, "prof.test.file_span"); }
  std::string path = "/tmp/met_prof_test_trace.json";
  ASSERT_TRUE(prof::WriteChromeTrace(path));
  FILE* f = fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
  fclose(f);
  remove(path.c_str());
  prof::JsonValue doc;
  ASSERT_TRUE(prof::JsonParser::Parse(text, &doc, nullptr));
  EXPECT_TRUE(doc.Get("traceEvents")->is_array());
}

// ---------------------------------------------------------------------------
// met.mem.* gauges
// ---------------------------------------------------------------------------

TEST(MemStatsTest, GaugesTrackProcessAndLogicalBytes) {
  prof::ProcMemInfo info = prof::SampleMemGauges();
#if defined(__linux__)
  ASSERT_TRUE(info.valid);
  EXPECT_GT(info.rss_bytes, 0u);
  EXPECT_GE(info.vm_bytes, info.rss_bytes);
#endif
  prof::SetLogicalIndexBytes(12345);
  prof::AddLogicalIndexBytes(55);
  auto& reg = obs::MetricsRegistry::Global();
  EXPECT_EQ(reg.GetGauge("met.mem.logical_index_bytes")->Value(), 12400);
  // Heap-live gauge reflects the hook in this binary.
  prof::SampleMemGauges();
  EXPECT_GT(reg.GetGauge("met.mem.heap_live_bytes")->Value(), 0);
}

// ---------------------------------------------------------------------------
// json_min parser
// ---------------------------------------------------------------------------

TEST(JsonMinTest, ParsesDocuments) {
  prof::JsonValue v;
  ASSERT_TRUE(prof::JsonParser::Parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "t": true, "n": null})", &v,
      nullptr));
  EXPECT_EQ(v.Get("a")->array()[0].number(), 1);
  EXPECT_EQ(v.Get("a")->array()[1].number(), 2.5);
  EXPECT_EQ(v.Get("a")->array()[2].number(), -300);
  EXPECT_EQ(v.Get("b")->GetString("c"), "x\ny");
  EXPECT_TRUE(v.Get("t")->boolean());
  EXPECT_TRUE(v.Get("n")->is_null());
  EXPECT_EQ(v.Get("missing"), nullptr);
}

TEST(JsonMinTest, ParsesUnicodeEscapes) {
  prof::JsonValue v;
  ASSERT_TRUE(prof::JsonParser::Parse(R"({"s": "café"})", &v, nullptr));
  EXPECT_EQ(v.GetString("s"), "caf\xc3\xa9");
}

TEST(JsonMinTest, RejectsMalformedInput) {
  prof::JsonValue v;
  std::string err;
  EXPECT_FALSE(prof::JsonParser::Parse("{", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(prof::JsonParser::Parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(prof::JsonParser::Parse("[1, 2,]", &v, &err));
  EXPECT_FALSE(prof::JsonParser::Parse("12 34", &v, &err));  // trailing junk
  EXPECT_FALSE(prof::JsonParser::Parse("", &v, &err));
}

// ---------------------------------------------------------------------------
// bench_diff comparison engine
// ---------------------------------------------------------------------------

std::string BenchDoc(double fst_mops, double fst_bytes) {
  char buf[512];
  snprintf(buf, sizeof(buf),
           R"({"schema":"met.bench.v1","sections":[{"title":"t","notes":[],)"
           R"("rows":[{"structure":"FST","mops":%g,"bytes":%g},)"
           R"({"structure":"ART","mops":9.0,"bytes":1000}]}],"obs":{}})",
           fst_mops, fst_bytes);
  return buf;
}

TEST(BenchDiffTest, DirectionInference) {
  using D = prof::MetricDirection;
  EXPECT_EQ(prof::InferDirection("mops"), D::kHigherBetter);
  EXPECT_EQ(prof::InferDirection("speedup"), D::kHigherBetter);
  EXPECT_EQ(prof::InferDirection("ipc"), D::kHigherBetter);
  EXPECT_EQ(prof::InferDirection("op_latency_ns"), D::kLowerBetter);
  EXPECT_EQ(prof::InferDirection("bytes_per_key"), D::kLowerBetter);
  EXPECT_EQ(prof::InferDirection("llc_miss_per_op"), D::kLowerBetter);
  EXPECT_EQ(prof::InferDirection("batch"), D::kUnknown);
}

TEST(BenchDiffTest, DetectsInjectedRegression) {
  std::vector<prof::BenchRow> base, cur;
  std::string err;
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(10.0, 1000), &base, &err)) << err;
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(7.0, 1000), &cur, &err)) << err;
  ASSERT_EQ(base.size(), 2u);
  EXPECT_EQ(base[0].id, "structure=FST");

  prof::DiffResult result =
      prof::DiffBenchRows(base, cur, prof::DiffOptions{});
  EXPECT_EQ(result.regressions, 1);  // mops 10 -> 7 is -30%
  EXPECT_EQ(result.improvements, 0);
  ASSERT_EQ(result.entries.size(), 1u);
  EXPECT_EQ(result.entries[0].kind, prof::DiffEntry::Kind::kRegression);
  EXPECT_EQ(result.entries[0].metric, "mops");
  EXPECT_NEAR(result.entries[0].rel_change, -0.3, 1e-9);
}

TEST(BenchDiffTest, ThresholdSuppressesNoise) {
  std::vector<prof::BenchRow> base, cur;
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(10.0, 1000), &base, nullptr));
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(9.5, 1000), &cur, nullptr));
  prof::DiffResult result =
      prof::DiffBenchRows(base, cur, prof::DiffOptions{});  // 10% threshold
  EXPECT_EQ(result.regressions, 0);

  prof::DiffOptions tight;
  tight.threshold = 0.02;
  result = prof::DiffBenchRows(base, cur, tight);
  EXPECT_EQ(result.regressions, 1);
}

TEST(BenchDiffTest, ImprovementsAndSpaceDirection) {
  std::vector<prof::BenchRow> base, cur;
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(10.0, 1000), &base, nullptr));
  // Faster AND smaller: two improvements, no regressions.
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(15.0, 500), &cur, nullptr));
  prof::DiffResult result =
      prof::DiffBenchRows(base, cur, prof::DiffOptions{});
  EXPECT_EQ(result.regressions, 0);
  EXPECT_EQ(result.improvements, 2);
}

TEST(BenchDiffTest, RowChurnIsReported) {
  std::vector<prof::BenchRow> base, cur;
  ASSERT_TRUE(prof::LoadBenchRows(BenchDoc(10.0, 1000), &base, nullptr));
  ASSERT_TRUE(prof::LoadBenchRows(
      R"({"schema":"met.bench.v1","sections":[{"title":"t","notes":[],)"
      R"("rows":[{"structure":"FST","mops":10.0,"bytes":1000},)"
      R"({"structure":"HOT","mops":5.0}]}],"obs":{}})",
      &cur, nullptr));
  prof::DiffResult result =
      prof::DiffBenchRows(base, cur, prof::DiffOptions{});
  int added = 0, removed = 0;
  for (const auto& e : result.entries) {
    added += e.kind == prof::DiffEntry::Kind::kRowAdded;
    removed += e.kind == prof::DiffEntry::Kind::kRowRemoved;
  }
  EXPECT_EQ(added, 1);    // HOT appeared
  EXPECT_EQ(removed, 1);  // ART vanished
}

TEST(BenchDiffTest, RejectsNonBenchDocuments) {
  std::vector<prof::BenchRow> rows;
  std::string err;
  EXPECT_FALSE(prof::LoadBenchRows("{}", &rows, &err));
  EXPECT_FALSE(prof::LoadBenchRows("not json", &rows, &err));
  EXPECT_FALSE(
      prof::LoadBenchRows(R"({"schema":"other.v2","sections":[]})", &rows, &err));
}

}  // namespace
}  // namespace met
