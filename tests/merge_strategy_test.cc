// Tests for the merge-cold strategy (Section 5.2.2's design alternative).
#include <map>

#include "common/random.h"
#include "hybrid/hybrid.h"
#include "keys/keygen.h"
#include "gtest/gtest.h"

namespace met {
namespace {

TEST(MergeColdTest, HotKeysStayInDynamicStage) {
  HybridConfig cfg;
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  cfg.min_merge_entries = 512;
  HybridBTree<uint64_t> index(cfg);
  // Insert cold keys, then hammer a small hot set.
  for (uint64_t k = 0; k < 2000; ++k) index.Insert(k, k);
  for (int r = 0; r < 100; ++r)
    for (uint64_t k = 0; k < 10; ++k) index.Lookup(k);
  // Force enough inserts to trigger another merge.
  for (uint64_t k = 2000; k < 4000; ++k) index.Insert(k, k);
  ASSERT_GT(index.merge_stats().merge_count, 0u);
  // The hot keys (0..9 were re-read just before the merge window) should be
  // findable and the structure consistent.
  for (uint64_t k = 0; k < 4000; ++k) {
    uint64_t v = 0;
    ASSERT_TRUE(index.Lookup(k, &v)) << k;
    EXPECT_EQ(v, k);
  }
  EXPECT_EQ(index.size(), 4000u);
}

TEST(MergeColdTest, MatchesStdMapUnderRandomOps) {
  HybridConfig cfg;
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  cfg.min_merge_entries = 256;
  HybridBTree<uint64_t> index(cfg);
  std::map<uint64_t, uint64_t> ref;
  Random rng(5);
  for (int i = 0; i < 40000; ++i) {
    uint64_t k = rng.Uniform(5000);
    switch (rng.Uniform(4)) {
      case 0:
        ASSERT_EQ(index.Insert(k, i), ref.emplace(k, i).second);
        break;
      case 1: {
        bool in_ref = ref.count(k) > 0;
        if (in_ref) ref[k] = i;
        ASSERT_EQ(index.Update(k, i), in_ref);
        break;
      }
      case 2:
        ASSERT_EQ(index.Erase(k), ref.erase(k) > 0);
        break;
      default: {
        uint64_t v = 0;
        bool found = index.Lookup(k, &v);
        ASSERT_EQ(found, ref.count(k) > 0);
        if (found) {
          ASSERT_EQ(v, ref[k]);
        }
      }
    }
  }
  EXPECT_EQ(index.size(), ref.size());
  std::vector<uint64_t> vals;
  index.Scan(0, ref.size() + 1, &vals);
  ASSERT_EQ(vals.size(), ref.size());
}

TEST(MergeColdTest, MergesDoNotThrash) {
  HybridConfig cfg;
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  cfg.min_merge_entries = 1024;
  HybridBTree<uint64_t> index(cfg);
  auto keys = GenRandomInts(200000);
  for (size_t i = 0; i < keys.size(); ++i) {
    index.Insert(keys[i], i);
    index.Lookup(keys[i / 2]);  // keep half the key space "hot"
  }
  // Merge count stays sane (no per-insert thrash).
  EXPECT_LT(index.merge_stats().merge_count, keys.size() / 512);
}

// Updates and deletes add dynamic-stage entries too, so under kMergeCold an
// update-only or delete-only stream must still trigger merges and keep the
// dynamic stage near the ratio trigger (100k static / ratio 10 = 10k).
HybridConfig ColdRatioConfig() {
  HybridConfig cfg;
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  cfg.min_merge_entries = 1024;
  cfg.merge_ratio = 10;
  return cfg;
}

TEST(MergeColdTest, UpdateOnlyStreamMerges) {
  HybridBTree<uint64_t> index(ColdRatioConfig());
  constexpr uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) index.Insert(k, k);
  index.Merge();
  const size_t merges_before = index.merge_stats().merge_count;
  Random rng(17);
  for (int i = 0; i < 200000; ++i)
    ASSERT_TRUE(index.Update(rng.Uniform(kKeys), i));
  EXPECT_GT(index.merge_stats().merge_count, merges_before);
  EXPECT_LT(index.DynamicEntries(), 2 * kKeys / 10);
  EXPECT_EQ(index.size(), kKeys);
}

TEST(MergeColdTest, DeleteOnlyStreamMerges) {
  HybridBTree<uint64_t> index(ColdRatioConfig());
  constexpr uint64_t kKeys = 100000;
  for (uint64_t k = 0; k < kKeys; ++k) index.Insert(k, k);
  index.Merge();
  const size_t merges_before = index.merge_stats().merge_count;
  for (uint64_t k = 0; k < kKeys; k += 2) ASSERT_TRUE(index.Erase(k));
  EXPECT_GT(index.merge_stats().merge_count, merges_before);
  EXPECT_LT(index.DynamicEntries(), 2 * kKeys / 10);
  EXPECT_EQ(index.size(), kKeys / 2);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_EQ(index.Lookup(k), k % 2 == 1);
}

}  // namespace
}  // namespace met
