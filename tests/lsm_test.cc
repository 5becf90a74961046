// Tests for the mini LSM engine and the ARF baseline.
#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <optional>
#include <set>
#include <string>

#include "arf/arf.h"
#include "check/test_access.h"
#include "common/random.h"
#include "io/io.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"
#include "obs/obs.h"
#include "gtest/gtest.h"

namespace met {
namespace {

LsmOptions SmallOptions(const char* subdir, LsmFilterType filter) {
  LsmOptions opt;
  opt.dir = std::string("/tmp/met_lsm_test_") + subdir;
  opt.memtable_bytes = 64 << 10;
  opt.sstable_target_bytes = 128 << 10;
  opt.level1_bytes = 256 << 10;
  opt.block_cache_blocks = 64;
  opt.filter = filter;
  return opt;
}

class LsmFilterTest : public ::testing::TestWithParam<LsmFilterType> {};

TEST_P(LsmFilterTest, PutGetAcrossCompactions) {
  LsmTree lsm(SmallOptions("pg", GetParam()));
  std::map<std::string, std::string> ref;
  Random rng(3);
  auto keys = GenEmails(8000, 5);
  for (const auto& k : keys) {
    std::string v = "val_" + std::to_string(rng.Next() % 1000);
    ASSERT_TRUE(lsm.Put(k, v).ok());
    ref[k] = v;
  }
  // Overwrites.
  for (size_t i = 0; i < keys.size(); i += 10) {
    ASSERT_TRUE(lsm.Put(keys[i], "updated").ok());
    ref[keys[i]] = "updated";
  }
  ASSERT_TRUE(lsm.Finish().ok());
  EXPECT_GT(lsm.NumTables(), 1u);
  for (size_t i = 0; i < keys.size(); i += 3) {
    std::string v;
    ASSERT_TRUE(lsm.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, ref[keys[i]]);
  }
  EXPECT_FALSE(lsm.Lookup("zz@not-a-key"));
}

TEST_P(LsmFilterTest, SeekMatchesReference) {
  LsmTree lsm(SmallOptions("seek", GetParam()));
  auto ints = GenRandomInts(20000, 7);
  std::set<std::string> ref;
  for (auto v : ints) {
    std::string k = Uint64ToKey(v);
    ASSERT_TRUE(lsm.Put(k, "x").ok());
    ref.insert(k);
  }
  ASSERT_TRUE(lsm.Finish().ok());
  Random rng(9);
  for (int t = 0; t < 500; ++t) {
    std::string q = Uint64ToKey(rng.Next());
    auto got = lsm.Seek(q);
    auto expect = ref.lower_bound(q);
    if (expect == ref.end()) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, *expect);
    }
  }
}

TEST_P(LsmFilterTest, ClosedSeekMatchesReference) {
  LsmTree lsm(SmallOptions("cseek", GetParam()));
  auto ints = GenRandomInts(20000, 11);
  std::set<uint64_t> ref(ints.begin(), ints.end());
  for (auto v : ints) ASSERT_TRUE(lsm.Put(Uint64ToKey(v), "x").ok());
  ASSERT_TRUE(lsm.Finish().ok());
  Random rng(13);
  for (int t = 0; t < 500; ++t) {
    uint64_t a = rng.Next();
    uint64_t b = a + (uint64_t{1} << 40);
    auto got = lsm.ClosedSeek(Uint64ToKey(a), Uint64ToKey(b));
    auto it = ref.lower_bound(a);
    bool expect = it != ref.end() && *it <= b;
    ASSERT_EQ(got.has_value(), expect) << t;
    if (expect) {
      EXPECT_EQ(KeyToUint64(*got), *it);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Filters, LsmFilterTest,
                         ::testing::Values(LsmFilterType::kNone,
                                           LsmFilterType::kBloom,
                                           LsmFilterType::kSurfHash,
                                           LsmFilterType::kSurfReal),
                         [](const ::testing::TestParamInfo<LsmFilterType>& i) {
                           std::string n = LsmFilterTypeName(i.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
                           return n;
                         });

TEST(LsmTest, FiltersSavePointIo) {
  LsmTree none(SmallOptions("io_none", LsmFilterType::kNone));
  LsmTree bloom(SmallOptions("io_bloom", LsmFilterType::kBloom));
  auto ints = GenRandomInts(30000, 17);
  for (auto v : ints) {
    ASSERT_TRUE(none.Put(Uint64ToKey(v), "x").ok());
    ASSERT_TRUE(bloom.Put(Uint64ToKey(v), "x").ok());
  }
  ASSERT_TRUE(none.Finish().ok());
  ASSERT_TRUE(bloom.Finish().ok());
  none.ResetStats();
  bloom.ResetStats();
  Random rng(19);
  for (int t = 0; t < 5000; ++t) {
    std::string q = Uint64ToKey(rng.Next());  // almost surely absent
    none.Lookup(q);
    bloom.Lookup(q);
  }
  EXPECT_LT(bloom.stats().block_reads, none.stats().block_reads / 2 + 10);
  EXPECT_GT(bloom.stats().filter_negatives, 0u);
}

// Point lookups probe L0 newest-first, then the covering table of each
// deeper level, and stop at the first hit: the filter is probed once per
// covering table walked, and every probe resolves to exactly one of a
// negative, a true positive or a false positive.
TEST(LsmTest, LookupProbeOrderAndFilterAccounting) {
  LsmTree lsm(SmallOptions("probe_order", LsmFilterType::kBloom));
  // Eight flushes. Each table holds the shared bounds k000 and k999 (so
  // every table covers every k-key) plus the middle keys i with
  // i % 8 == round. The fifth flush exceeds level0_table_limit (4) and
  // merges rounds 0-4 into one L1 table; rounds 5-7 stay in L0.
  auto key = [](int i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    return std::string(buf);
  };
  for (int round = 0; round < 8; ++round) {
    const std::string v = "r" + std::to_string(round);
    ASSERT_TRUE(lsm.Put(key(0), v).ok());
    ASSERT_TRUE(lsm.Put(key(999), v).ok());
    for (int i = round == 0 ? 8 : round; i < 999; i += 8) {
      ASSERT_TRUE(lsm.Put(key(i), v).ok());
    }
    ASSERT_TRUE(lsm.Finish().ok());
  }
  ASSERT_EQ(lsm.NumLevels(), 2u);
  ASSERT_EQ(lsm.NumTables(), 4u);  // three overlapping L0 tables + one L1

  auto& reg = obs::MetricsRegistry::Global();
  auto counter = [&reg](const char* name) {
    reg.Collect();
    return reg.GetCounter(name)->Value();
  };
  // Probes spent by one Lookup; checks the value found and the accounting.
  auto probes = [&](const std::string& k, const char* want) {
    const uint64_t p0 = lsm.stats().filter_probes;
    const uint64_t n0 = lsm.stats().filter_negatives;
    const uint64_t tp0 = counter("lsm.filter.bloom.true_positives");
    const uint64_t fp0 = counter("lsm.filter.bloom.false_positives");
    std::string v;
    const bool found = lsm.Lookup(k, &v);
    EXPECT_EQ(found, want != nullptr) << k;
    if (found && want != nullptr) {
      EXPECT_EQ(v, want) << k;
    }
    const uint64_t p = lsm.stats().filter_probes - p0;
    const uint64_t resolved = (lsm.stats().filter_negatives - n0) +
                              (counter("lsm.filter.bloom.true_positives") -
                               tp0) +
                              (counter("lsm.filter.bloom.false_positives") -
                               fp0);
    EXPECT_EQ(resolved, p) << k;
    return p;
  };

  EXPECT_EQ(probes(key(0), "r7"), 1u);    // newest L0 table answers
  EXPECT_EQ(probes(key(7), "r7"), 1u);    // only in the newest L0 table
  EXPECT_EQ(probes(key(6), "r6"), 2u);
  EXPECT_EQ(probes(key(5), "r5"), 3u);    // only in the oldest L0 table
  EXPECT_EQ(probes(key(8), "r0"), 4u);    // only in L1: all three L0 first
  EXPECT_EQ(probes(key(12), "r4"), 4u);
  EXPECT_EQ(probes("k5000", nullptr), 4u);  // in range, absent everywhere
  EXPECT_EQ(probes("a", nullptr), 0u);      // below every table's range
  EXPECT_EQ(probes("z", nullptr), 0u);      // above every table's range
  for (int i = 0; i < 1000; ++i) probes(key(i) + "x", nullptr);
}

TEST(LsmTest, SurfSavesClosedSeekIo) {
  LsmTree none(SmallOptions("rs_none", LsmFilterType::kNone));
  LsmTree surf(SmallOptions("rs_surf", LsmFilterType::kSurfReal));
  auto ints = GenRandomInts(30000, 23);
  for (auto v : ints) {
    ASSERT_TRUE(none.Put(Uint64ToKey(v), "x").ok());
    ASSERT_TRUE(surf.Put(Uint64ToKey(v), "x").ok());
  }
  ASSERT_TRUE(none.Finish().ok());
  ASSERT_TRUE(surf.Finish().ok());
  none.ResetStats();
  surf.ResetStats();
  Random rng(29);
  size_t found_none = 0, found_surf = 0;
  for (int t = 0; t < 3000; ++t) {
    uint64_t a = rng.Next();
    // Narrow ranges: mostly empty.
    std::string lo = Uint64ToKey(a), hi = Uint64ToKey(a + (1ull << 30));
    found_none += none.ClosedSeek(lo, hi).has_value();
    found_surf += surf.ClosedSeek(lo, hi).has_value();
  }
  EXPECT_EQ(found_none, found_surf);  // same answers
  EXPECT_LT(surf.stats().block_reads, none.stats().block_reads / 2);
}

TEST(LsmTest, CountApproximation) {
  LsmTree surf(SmallOptions("cnt", LsmFilterType::kSurfReal));
  auto ints = GenRandomInts(20000, 31);
  std::set<uint64_t> ref(ints.begin(), ints.end());
  for (auto v : ints) ASSERT_TRUE(surf.Put(Uint64ToKey(v), "x").ok());
  ASSERT_TRUE(surf.Finish().ok());
  Random rng(37);
  for (int t = 0; t < 100; ++t) {
    uint64_t a = rng.Next();
    uint64_t b = a + (uint64_t{1} << 52);
    if (b < a) continue;
    uint64_t truth = std::distance(ref.lower_bound(a), ref.upper_bound(b));
    uint64_t approx = surf.Count(Uint64ToKey(a), Uint64ToKey(b));
    EXPECT_GE(approx, truth);
    EXPECT_LE(approx, truth + 2 * surf.NumTables() + 2);
  }
}

// ---------- One range-read path: block fetches per read ----------

// Blocks a read touched, from the cache or from disk.
uint64_t Fetches(const LsmTree& lsm) {
  return lsm.stats().block_reads + lsm.stats().block_cache_hits;
}

struct SeekVsScan {
  uint64_t seek_fetches = 0, scan_fetches = 0;
};

// Loads 40k random 8-byte keys with 100-byte values (a tree of several
// levels over a 64-block cache), then issues the same random queries as
// Seeks and as one-row Scans.
SeekVsScan MeasureSeekVsScan(const char* subdir, LsmFilterType filter) {
  LsmTree lsm(SmallOptions(subdir, filter));
  const std::string value(100, 'v');
  for (auto v : GenRandomInts(40000, 41))
    EXPECT_TRUE(lsm.Put(Uint64ToKey(v), value).ok());
  EXPECT_TRUE(lsm.Finish().ok());
  EXPECT_GE(lsm.NumLevels(), 3u);
  std::vector<std::string> queries;
  Random rng(43);
  for (int t = 0; t < 2000; ++t) queries.push_back(Uint64ToKey(rng.Next()));
  SeekVsScan out;
  lsm.ResetStats();
  for (const auto& q : queries) lsm.Seek(q);
  out.seek_fetches = Fetches(lsm);
  lsm.ResetStats();
  for (const auto& q : queries)
    lsm.Scan(q, [](std::string_view, std::string_view) { return false; });
  out.scan_fetches = Fetches(lsm);
  return out;
}

TEST(LsmRangeReadTest, SeekFetchesNoMoreBlocksThanOneRowScan) {
  // Seek is the first row of the same cursor a Scan iterates: it must not
  // read a table's blocks that the scan's merge never needs.
  SeekVsScan none = MeasureSeekVsScan("fetch_none", LsmFilterType::kNone);
  EXPECT_GT(none.scan_fetches, 0u);
  EXPECT_LE(none.seek_fetches, none.scan_fetches);
}

TEST(LsmRangeReadTest, SurfBoundsSpareOneRowScanBlocks) {
  // With SuRF-Real a table opens only when its MoveToNext bound is the
  // smallest head, for a Scan as for a Seek (Open-Seek, Section 4.2).
  SeekVsScan none = MeasureSeekVsScan("fetch_none2", LsmFilterType::kNone);
  SeekVsScan surf = MeasureSeekVsScan("fetch_surf", LsmFilterType::kSurfReal);
  EXPECT_LE(surf.scan_fetches, surf.seek_fetches + surf.seek_fetches / 10);
  EXPECT_LT(surf.scan_fetches, none.scan_fetches / 2);
}

// ---------- Streaming merge: Scan and Lookup vs a std::map oracle ----------

using Oracle = std::map<std::string, std::string>;

std::vector<std::pair<std::string, std::string>> ScanN(LsmTree* lsm,
                                                       const std::string& lk,
                                                       size_t limit) {
  std::vector<std::pair<std::string, std::string>> out;
  if (limit == 0) return out;
  lsm->Scan(lk, [&](std::string_view k, std::string_view v) {
    out.emplace_back(k, v);
    return out.size() < limit;
  });
  return out;
}

std::vector<std::pair<std::string, std::string>> OracleScan(
    const Oracle& oracle, const std::string& lk, size_t limit) {
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = oracle.lower_bound(lk);
       it != oracle.end() && out.size() < limit; ++it)
    out.emplace_back(it->first, it->second);
  return out;
}

// Full scan, bounded scans from random starts, and every point lookup.
void ExpectMatchesOracle(LsmTree* lsm, const Oracle& oracle, Random* rng,
                         const std::string& where) {
  ASSERT_EQ(ScanN(lsm, "", ~size_t{0}), OracleScan(oracle, "", ~size_t{0}))
      << where;
  for (int t = 0; t < 20; ++t) {
    std::string lk = "k" + std::to_string(rng->Uniform(700));
    size_t limit = 1 + rng->Uniform(40);
    ASSERT_EQ(ScanN(lsm, lk, limit), OracleScan(oracle, lk, limit))
        << where << " scan from " << lk << " limit " << limit;
  }
  for (const auto& [k, v] : oracle) {
    std::string got;
    ASSERT_TRUE(lsm->Lookup(k, &got)) << where << " " << k;
    ASSERT_EQ(got, v) << where << " " << k;
  }
  EXPECT_FALSE(lsm->Lookup("k~absent")) << where;
}

LsmOptions MergeOptions(const char* subdir) {
  LsmOptions opt;
  opt.dir = std::string("/tmp/met_lsm_test_") + subdir;
  opt.memtable_bytes = 4 << 10;
  opt.block_bytes = 256;
  opt.sstable_target_bytes = 2 << 10;
  opt.level1_bytes = 8 << 10;
  opt.level_multiplier = 4;
  opt.block_cache_blocks = 8;
  opt.durable = true;
  return opt;
}

TEST(LsmMergeTest, DifferentialAcrossFlushesAndCompactions) {
  const LsmOptions opt = MergeOptions("merge_diff");
  io::RemoveAllFiles(io::Env::Posix(), opt.dir);
  Oracle oracle;
  Random rng(71);
  {
    auto lsm = LsmTree::Open(opt);
    uint64_t seen = 0;
    for (int i = 0; i < 8000; ++i) {
      // Overwrites (600-key universe) and empty values (the durable
      // engine's tombstones) mixed in.
      std::string k = "k" + std::to_string(rng.Uniform(600));
      std::string v = rng.Uniform(8) == 0 ? "" : "v" + std::to_string(i);
      ASSERT_TRUE(lsm->Put(k, v).ok());
      oracle[k] = v;
      const uint64_t events = lsm->stats().flushes + lsm->stats().compactions;
      if (events != seen) {
        seen = events;
        ExpectMatchesOracle(lsm.get(), oracle, &rng, "op " + std::to_string(i));
        std::ostringstream err;
        ASSERT_TRUE(lsm->Validate(err)) << err.str();
      }
    }
    ASSERT_TRUE(lsm->last_io_error().ok()) << lsm->last_io_error().ToString();
    EXPECT_GE(lsm->stats().compactions, 5u);
    EXPECT_GE(lsm->NumLevels(), 3u) << "no L1 -> L2 compaction happened";
  }
  auto reopened = LsmTree::Open(opt);
  ExpectMatchesOracle(reopened.get(), oracle, &rng, "after reopen");
  reopened.reset();
  io::RemoveAllFiles(io::Env::Posix(), opt.dir);
}

// One key in five L0 tables and in L1 at once: the compaction merge and
// every Scan must resolve it to the newest write.
TEST(LsmMergeTest, NewestVersionWinsTies) {
  LsmOptions opt = MergeOptions("merge_tie");
  opt.level1_bytes = 1 << 20;  // no L1 -> L2 compaction
  io::RemoveAllFiles(io::Env::Posix(), opt.dir);
  auto expect_tie = [](LsmTree* lsm, const std::string& want) {
    std::string got;
    ASSERT_TRUE(lsm->Lookup("tie", &got));
    EXPECT_EQ(got, want);
    auto rows = ScanN(lsm, "", ~size_t{0});
    size_t hits = 0;
    for (const auto& [k, v] : rows) {
      if (k != "tie") continue;
      ++hits;
      EXPECT_EQ(v, want);
    }
    EXPECT_EQ(hits, 1u);
    const std::vector<std::pair<std::string, std::string>> first = {
        {"tie", want}};
    EXPECT_EQ(ScanN(lsm, "tie", 1), first);
  };
  {
    auto lsm = LsmTree::Open(opt);
    for (int g = 0; g < 5; ++g) {  // the fifth flush compacts into L1
      ASSERT_TRUE(lsm->Put("tie", "a" + std::to_string(g)).ok());
      ASSERT_TRUE(lsm->Put("filler" + std::to_string(g), "x").ok());
      ASSERT_TRUE(lsm->Finish().ok());
    }
    ASSERT_EQ(lsm->stats().compactions, 1u);
    expect_tie(lsm.get(), "a4");
    for (int g = 0; g < 4; ++g) {  // four L0 tables over L1
      ASSERT_TRUE(lsm->Put("tie", "b" + std::to_string(g)).ok());
      ASSERT_TRUE(lsm->Finish().ok());
    }
    ASSERT_EQ(lsm->stats().compactions, 1u);
    expect_tie(lsm.get(), "b3");
    ASSERT_TRUE(lsm->Put("tie", "newest").ok());  // memtable over all of it
    expect_tie(lsm.get(), "newest");
    ASSERT_TRUE(lsm->Finish().ok());  // five L0 tables + L1 merge
    ASSERT_EQ(lsm->stats().compactions, 2u);
    expect_tie(lsm.get(), "newest");
  }
  auto reopened = LsmTree::Open(opt);
  expect_tie(reopened.get(), "newest");
  reopened.reset();
  io::RemoveAllFiles(io::Env::Posix(), opt.dir);
}

// A two-slot block cache under a scan over many blocks of overlapping L0
// tables: every cursor step evicts a slot another cursor read from. A
// cursor that kept a cache pointer across GetBlock would read an entry
// vector that was overwritten or freed (ASan) and diverge from the oracle.
TEST(LsmMergeTest, ScanSurvivesTwoSlotBlockCache) {
  LsmOptions opt = MergeOptions("merge_cache");
  opt.durable = false;
  opt.block_cache_blocks = 2;
  opt.level0_table_limit = 64;  // keep every flush as its own L0 table
  LsmTree lsm(opt);
  Oracle oracle;
  Random rng(73);
  for (int i = 0; i < 3000; ++i) {
    std::string k = "k" + std::to_string(rng.Uniform(700));
    std::string v = "value-" + std::to_string(i);
    ASSERT_TRUE(lsm.Put(k, v).ok());
    oracle[k] = v;
  }
  ASSERT_EQ(lsm.stats().compactions, 0u);
  ASSERT_GE(lsm.NumTables(), 8u);
  lsm.ResetStats();
  ExpectMatchesOracle(&lsm, oracle, &rng, "two-slot cache");
  EXPECT_GT(lsm.stats().block_reads, 100u);
}

// ---------- Block cache ----------

// Compaction removes its input tables, and their cached blocks go with
// them: the slots are freed for the next misses instead of waiting for the
// CLOCK hand.
TEST(LsmCacheTest, CompactionDropsRemovedTablesFromCache) {
  LsmOptions opt = MergeOptions("cache_drop");
  opt.durable = false;
  opt.block_cache_blocks = 64;
  opt.level1_bytes = 1 << 20;  // no L1 -> L2 compaction
  LsmTree lsm(opt);
  Oracle oracle;
  for (int g = 0; g < 5; ++g) {  // the fifth flush compacts L0 into L1
    if (g == 4) {
      ASSERT_EQ(lsm.stats().compactions, 0u);
      ASSERT_EQ(lsm.NumTables(), 4u);
      for (const auto& [k, v] : oracle) ASSERT_TRUE(lsm.Lookup(k));
      ASSERT_FALSE(check::TestAccess::LsmCachedTableIds(lsm).empty());
    }
    for (int i = 0; i < 40; ++i) {
      std::string k = "k" + std::to_string(g * 40 + i);
      ASSERT_TRUE(lsm.Put(k, "v" + k).ok());
      oracle[k] = "v" + k;
    }
    ASSERT_TRUE(lsm.Finish().ok());
  }
  ASSERT_EQ(lsm.stats().compactions, 1u);
  // Every cached block belonged to an L0 table the compaction removed.
  EXPECT_TRUE(check::TestAccess::LsmCachedTableIds(lsm).empty());
  Random rng(75);
  ExpectMatchesOracle(&lsm, oracle, &rng, "after compaction");
  const std::vector<uint64_t> live = check::TestAccess::LsmLiveTableIds(lsm);
  const std::vector<uint64_t> cached =
      check::TestAccess::LsmCachedTableIds(lsm);
  EXPECT_FALSE(cached.empty());
  for (uint64_t id : cached)
    EXPECT_NE(std::find(live.begin(), live.end(), id), live.end()) << id;
}

// Cache slots reuse their buffers across blocks of varying length. Each
// must stay sized to the largest block it held: a buffer that grew by
// doubling would leave a slot near twice its block's size.
TEST(LsmCacheTest, SlotBuffersStaySizedToTheirBlocks) {
  LsmOptions opt;
  opt.dir = "/tmp/met_lsm_test_cache_mem";
  opt.block_cache_blocks = 8;
  LsmTree lsm(opt);
  constexpr size_t kKeyBytes = 9, kSmall = 8, kLarge = 1000, kCount = 3000;
  Random rng(79);
  std::vector<std::string> keys, values;
  for (size_t i = 0; i < kCount; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06zu", i);
    keys.emplace_back(buf);
    values.emplace_back(rng.Uniform(4) == 0 ? kLarge : kSmall,
                        static_cast<char>('a' + i % 26));
    ASSERT_TRUE(lsm.Put(keys.back(), values.back()).ok());
  }
  ASSERT_TRUE(lsm.Finish().ok());
  lsm.ResetStats();
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t n = 0; n < kCount; ++n) {
      const size_t i = rng.Uniform(kCount);
      std::string got;
      ASSERT_TRUE(lsm.Lookup(keys[i], &got)) << keys[i];
      ASSERT_EQ(got, values[i]) << keys[i];
    }
  }
  EXPECT_GT(lsm.stats().block_reads, 50 * opt.block_cache_blocks);

  // A block is cut once its payload reaches block_bytes, so it ends at most
  // one entry past that; the slot also holds the CRC trailer while reading,
  // and one offset per entry.
  const size_t entry_overhead = 2 * sizeof(uint32_t) + kKeyBytes;
  const size_t largest_block =
      opt.block_bytes - 1 + entry_overhead + kLarge + sizeof(uint32_t);
  const size_t max_entries =
      (opt.block_bytes - 1) / (entry_overhead + kSmall) + 1;
  constexpr size_t kSlotOverhead = 256;  // slot header, index, free list
  const size_t bound = opt.block_cache_blocks *
                       (largest_block + max_entries * sizeof(uint32_t) +
                        kSlotOverhead);
  const MemoryBreakdown b = lsm.Breakdown();
  ASSERT_NE(b.Find("block_cache"), nullptr);
  EXPECT_LE(b.Find("block_cache")->TotalBytes(), bound) << b.ToString();
  EXPECT_EQ(b.TotalBytes(), lsm.MemoryBytes());
}

// ---------- Metrics ----------

// ResetStats() clears only the tree's own view. The process-wide
// lsm.block.reads counter never goes back, and grows by exactly the reads
// the tree counts after the reset.
TEST(LsmStatsTest, ResetStatsLeavesRegistryCountersMonotonic) {
  LsmOptions opt = SmallOptions("reset_stats", LsmFilterType::kNone);
  opt.block_cache_blocks = 4;
  LsmTree lsm(opt);
  auto keys = GenEmails(20000, 11);
  for (const auto& k : keys) ASSERT_TRUE(lsm.Put(k, "v").ok());
  ASSERT_TRUE(lsm.Finish().ok());

  auto& reg = obs::MetricsRegistry::Global();
  auto registry_reads = [&reg] {
    reg.Collect();
    return reg.GetCounter("lsm.block.reads")->Value();
  };
  Random rng(13);
  auto lookups = [&](int n) {
    for (int i = 0; i < n; ++i)
      ASSERT_TRUE(lsm.Lookup(keys[rng.Uniform(keys.size())]));
  };

  lookups(5000);
  const uint64_t before_reset = registry_reads();
  ASSERT_GT(lsm.stats().block_reads, 100u);
  lsm.ResetStats();
  EXPECT_EQ(lsm.stats().block_reads, 0u);
  lookups(10);
  ASSERT_GT(lsm.stats().block_reads, 0u);
  const uint64_t after_reset = registry_reads();
  EXPECT_GE(after_reset, before_reset);
  EXPECT_EQ(after_reset - before_reset, lsm.stats().block_reads);
}

// ---------- ARF ----------

TEST(ArfTest, NoFalseNegatives) {
  auto keys = GenRandomInts(10000, 41);
  SortUnique(&keys);
  Arf arf;
  arf.Build(keys);
  for (size_t i = 0; i < keys.size(); i += 7)
    EXPECT_TRUE(arf.MayContainRange(keys[i], keys[i]));
  // And after trimming.
  Random rng(43);
  for (int t = 0; t < 2000; ++t) {
    uint64_t a = rng.Next();
    arf.Train(a, a + (uint64_t{1} << 40));
  }
  arf.TrimToBits(keys.size() * 14);
  for (size_t i = 0; i < keys.size(); i += 7)
    EXPECT_TRUE(arf.MayContainRange(keys[i], keys[i])) << i;
}

TEST(ArfTest, PerfectTreeIsExact) {
  auto keys = GenRandomInts(5000, 47);
  SortUnique(&keys);
  std::set<uint64_t> ref(keys.begin(), keys.end());
  Arf arf;
  arf.Build(keys);
  Random rng(53);
  for (int t = 0; t < 2000; ++t) {
    uint64_t a = rng.Next();
    uint64_t b = a + rng.Uniform(uint64_t{1} << 44);
    auto it = ref.lower_bound(a);
    bool truth = it != ref.end() && *it <= b;
    EXPECT_EQ(arf.MayContainRange(a, b), truth);
  }
}

TEST(ArfTest, TrimReducesSizeButKeepsOneSidedError) {
  auto keys = GenRandomInts(20000, 59);
  SortUnique(&keys);
  std::set<uint64_t> ref(keys.begin(), keys.end());
  Arf arf;
  arf.Build(keys);
  size_t before = arf.EncodedBits();
  Random rng(61);
  for (int t = 0; t < 4000; ++t) {
    uint64_t a = rng.Next();
    arf.Train(a, a + (uint64_t{1} << 40));
  }
  arf.TrimToBits(keys.size() * 14);
  EXPECT_LT(arf.EncodedBits(), before);
  EXPECT_LE(arf.EncodedBits(), keys.size() * 14 + 64);
  size_t fp = 0, tn = 0;
  for (int t = 0; t < 3000; ++t) {
    uint64_t a = rng.Next();
    uint64_t b = a + (uint64_t{1} << 40);
    auto it = ref.lower_bound(a);
    bool truth = it != ref.end() && *it <= b;
    bool got = arf.MayContainRange(a, b);
    if (truth) {
      EXPECT_TRUE(got);  // one-sided error
    } else {
      ++tn;
      fp += got;
    }
  }
  ASSERT_GT(tn, 100u);
  EXPECT_LT(static_cast<double>(fp) / tn, 0.9);
}

}  // namespace
}  // namespace met
