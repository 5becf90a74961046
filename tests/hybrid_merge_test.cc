// Tests for the hybrid index's merge: freeze, drain and adopt, inline and on
// a background drain thread. Differential runs against std::map over every
// stage family, tombstone/scan regressions across merges, the merge-state
// validator with merges in flight, and the rejected configurations. The
// TSan CI job picks this binary up by name.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/hybrid_check.h"
#include "common/random.h"
#include "hybrid/hybrid.h"
#include "gtest/gtest.h"

namespace met {
namespace {

template <typename Index>
void ExpectValid(const Index& index) {
  std::ostringstream os;
  EXPECT_TRUE(index.Validate(os)) << os.str();
}

HybridConfig SmallMergeConfig(bool background) {
  HybridConfig c;
  c.min_merge_entries = 256;
  c.background_merge = background;
  return c;
}

HybridConfig ManualMergeConfig() {
  HybridConfig c;
  c.min_merge_entries = 1 << 30;
  c.background_merge = true;
  return c;
}

// ---- Differential correctness ----

template <typename Index, typename KeyFn>
void RunRandomOpsAgainstStdMap(Index* index, KeyFn make_key, int ops,
                               uint64_t seed) {
  std::map<decltype(make_key(0)), uint64_t> ref;
  Random rng(seed);
  for (int i = 0; i < ops; ++i) {
    auto k = make_key(rng.Uniform(4000));
    switch (rng.Uniform(5)) {
      case 0:
        ASSERT_EQ(index->Insert(k, i), ref.emplace(k, i).second) << i;
        break;
      case 1: {
        bool in_ref = ref.count(k) > 0;
        if (in_ref) ref[k] = i;
        ASSERT_EQ(index->Update(k, i), in_ref);
        break;
      }
      case 2:
        ASSERT_EQ(index->Erase(k), ref.erase(k) > 0);
        break;
      default: {
        uint64_t v = 0;
        bool found = index->Lookup(k, &v);
        auto it = ref.find(k);
        ASSERT_EQ(found, it != ref.end());
        if (found) {
          ASSERT_EQ(v, it->second);
        }
      }
    }
    if (i % 4096 == 0) ExpectValid(*index);  // a drain may be in flight
  }
  index->WaitForMergeIdle();
  ASSERT_EQ(index->size(), ref.size());
  std::vector<uint64_t> vals;
  using KeyT = decltype(make_key(0));
  index->Scan(KeyT{}, ref.size() + 10, &vals);
  ASSERT_EQ(vals.size(), ref.size());
  size_t i = 0;
  for (const auto& [k, v] : ref) {
    ASSERT_EQ(vals[i], v) << "position " << i;
    ++i;
  }
  ExpectValid(*index);
  EXPECT_GT(index->merge_stats().merge_count, 0u);
}

std::string StringKey(char prefix, uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%c%08llu", prefix, (unsigned long long)i);
  return buf;
}

TEST(HybridMergeTest, BTreeIntRandomOpsInlineMerge) {
  HybridBTree<uint64_t> index(SmallMergeConfig(false));
  RunRandomOpsAgainstStdMap(
      &index, [](uint64_t i) { return i * 2; }, 20000, 1);
}

TEST(HybridMergeTest, BTreeIntRandomOpsBackgroundMerge) {
  HybridBTree<uint64_t> index(SmallMergeConfig(true));
  RunRandomOpsAgainstStdMap(
      &index, [](uint64_t i) { return i * 2; }, 20000, 2);
}

TEST(HybridMergeTest, SkipListIntRandomOps) {
  HybridSkipList<uint64_t> index(SmallMergeConfig(true));
  RunRandomOpsAgainstStdMap(
      &index, [](uint64_t i) { return i * 3; }, 12000, 3);
}

TEST(HybridMergeTest, ArtStringRandomOps) {
  HybridArt index(SmallMergeConfig(true));
  RunRandomOpsAgainstStdMap(
      &index, [](uint64_t i) { return StringKey('k', i); }, 12000, 4);
}

TEST(HybridMergeTest, MasstreeStringRandomOps) {
  HybridMasstree index(SmallMergeConfig(false));
  RunRandomOpsAgainstStdMap(
      &index, [](uint64_t i) { return StringKey('m', i); }, 12000, 5);
}

// ---- Regressions across merges ----

TEST(HybridMergeTest, NonUniqueInsertKeepsSizeExact) {
  HybridConfig cfg = ManualMergeConfig();
  cfg.unique = false;
  HybridBTree<uint64_t> index(cfg);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(index.Insert(k, k));
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(index.Insert(k, k + 1000));
  ASSERT_EQ(index.size(), 100u);
  index.Merge();
  ASSERT_EQ(index.size(), 100u);
  ASSERT_TRUE(index.Insert(7, 7777));
  ASSERT_EQ(index.size(), 100u);
  uint64_t v = 0;
  ASSERT_TRUE(index.Lookup(7, &v));
  EXPECT_EQ(v, 7777u);
  ExpectValid(index);
}

TEST(HybridMergeTest, TombstoneReinsertSizeExact) {
  HybridBTree<uint64_t> index(ManualMergeConfig());
  for (uint64_t k = 0; k < 50; ++k) index.Insert(k, k);
  index.Merge();
  ASSERT_TRUE(index.Erase(10));
  ASSERT_FALSE(index.Erase(10));
  ASSERT_EQ(index.size(), 49u);
  ASSERT_TRUE(index.Insert(10, 1010));
  ASSERT_EQ(index.size(), 50u);
  index.Merge();
  ASSERT_EQ(index.size(), 50u);
  ExpectValid(index);
}

TEST(HybridMergeTest, ScanAcrossDenseTombstoneRun) {
  HybridBTree<uint64_t> index(ManualMergeConfig());
  for (uint64_t k = 0; k < 1000; ++k) index.Insert(k, k + 1);
  index.Merge();
  for (uint64_t k = 300; k < 700; ++k) ASSERT_TRUE(index.Erase(k));
  ASSERT_EQ(index.size(), 600u);
  std::vector<uint64_t> vals;
  ASSERT_EQ(index.Scan(250, 100, &vals), 100u);
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(vals[i], 250 + i + 1);
  for (size_t i = 50; i < 100; ++i) EXPECT_EQ(vals[i], 700 + (i - 50) + 1);
  ExpectValid(index);
}

// ---- Merge protocol ----

TEST(HybridMergeTest, ManualMergeDrainsEverything) {
  HybridBTree<uint64_t> index(ManualMergeConfig());
  for (uint64_t k = 0; k < 100; ++k) index.Insert(k, k);
  EXPECT_EQ(index.DynamicEntries(), 100u);
  EXPECT_EQ(index.StaticEntries(), 0u);
  index.Merge();
  EXPECT_FALSE(index.MergeInFlight());
  EXPECT_EQ(index.DynamicEntries(), 0u);
  EXPECT_EQ(index.StaticEntries(), 100u);
  for (uint64_t k = 100; k < 150; ++k) index.Insert(k, k);
  index.Merge();
  EXPECT_EQ(index.StaticEntries(), 150u);
  EXPECT_EQ(index.merge_stats().merge_count, 2u);
  index.Merge();  // empty dynamic stage: a no-op
  EXPECT_EQ(index.merge_stats().merge_count, 2u);
  ExpectValid(index);
}

TEST(HybridMergeTest, BackgroundMergeIsAdopted) {
  HybridBTree<uint64_t> index(SmallMergeConfig(true));
  for (uint64_t k = 0; k < 20000; ++k) index.Insert(k, k + 1);
  index.WaitForMergeIdle();
  EXPECT_FALSE(index.MergeInFlight());
  EXPECT_GT(index.merge_stats().merge_count, 0u);
  EXPECT_GT(index.StaticEntries(), 0u);
  EXPECT_EQ(index.size(), 20000u);
  EXPECT_EQ(index.DynamicEntries() + index.StaticEntries(), 20000u);
  ExpectValid(index);
}

// The owner keeps reading, writing, erasing and scanning while background
// drains run on their own thread; every result is checked against std::map
// as it happens, and the validator runs with drains in flight. TSan runs
// this binary in CI.
TEST(HybridMergeTest, OwnerOpsDuringBackgroundDrains) {
  HybridBTree<uint64_t> index(SmallMergeConfig(true));
  std::map<uint64_t, uint64_t> ref;
  Random rng(99);
  size_t ops_in_flight = 0;
  std::vector<uint64_t> got, want;
  for (int i = 0; i < 60000; ++i) {
    if (index.MergeInFlight()) ++ops_in_flight;
    uint64_t k = rng.Uniform(8000);
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
        ASSERT_EQ(index.Insert(k, i), ref.emplace(k, i).second) << i;
        break;
      case 2: {
        bool in_ref = ref.count(k) > 0;
        if (in_ref) ref[k] = i;
        ASSERT_EQ(index.Update(k, i), in_ref) << i;
        break;
      }
      case 3:
        ASSERT_EQ(index.Erase(k), ref.erase(k) > 0) << i;
        break;
      case 4: {
        size_t n = 1 + rng.Uniform(32);
        got.clear();
        want.clear();
        for (auto it = ref.lower_bound(k); it != ref.end() && want.size() < n;
             ++it)
          want.push_back(it->second);
        ASSERT_EQ(index.Scan(k, n, &got), want.size()) << i;
        ASSERT_EQ(got, want) << i;
        break;
      }
      default: {
        uint64_t v = 0;
        auto it = ref.find(k);
        ASSERT_EQ(index.Lookup(k, &v), it != ref.end()) << i;
        if (it != ref.end()) {
          ASSERT_EQ(v, it->second) << i;
        }
      }
    }
    ASSERT_EQ(index.size(), ref.size()) << i;
    if (i % 5000 == 0) ExpectValid(index);
  }
  EXPECT_GT(ops_in_flight, 0u) << "no op overlapped a background drain";
  EXPECT_GT(index.merge_stats().merge_count, 3u);
  index.WaitForMergeIdle();
  ExpectValid(index);
}

// ---- Rejected configurations ----

TEST(HybridMergeDeathTest, BackgroundMergeRejectsMergeCold) {
  HybridConfig cfg = SmallMergeConfig(true);
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  EXPECT_DEATH(HybridBTree<uint64_t> index(cfg), "kMergeAll");
}

TEST(HybridMergeDeathTest, BackgroundMergeRejectsReadCacheStage) {
  EXPECT_DEATH(HybridCompressedBTree<uint64_t> index(SmallMergeConfig(true)),
               "const reads");
}

}  // namespace
}  // namespace met
