// Tests for the Compressed B+tree (rule #3) and the Prefix B+tree.
#include <map>
#include <string>

#include "btree/compressed_btree.h"
#include "btree/prefix_btree.h"
#include "common/random.h"
#include "keys/keygen.h"
#include "gtest/gtest.h"

namespace met {
namespace {

template <typename K>
std::vector<MergeEntry<K, uint64_t>> Entries(const std::vector<K>& keys) {
  std::vector<MergeEntry<K, uint64_t>> e;
  for (size_t i = 0; i < keys.size(); ++i)
    e.push_back({keys[i], static_cast<uint64_t>(i), false});
  return e;
}

TEST(CompressedBTreeTest, RoundTripInts) {
  auto keys = GenRandomInts(30000);
  SortUnique(&keys);
  CompressedBTree<uint64_t> t(16);
  t.Build(Entries(keys));
  for (size_t i = 0; i < keys.size(); i += 7) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Lookup(keys[i], &v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(t.Lookup(keys[0] + 1));
  EXPECT_GT(t.cache_hits() + t.cache_misses(), 0u);
}

TEST(CompressedBTreeTest, RoundTripStrings) {
  auto keys = GenEmails(15000);
  SortUnique(&keys);
  CompressedBTree<std::string> t(16);
  t.Build(Entries(keys));
  for (size_t i = 0; i < keys.size(); i += 11) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
}

TEST(CompressedBTreeTest, CompressionSavesMemoryOnMonoInc) {
  auto keys = GenMonoIncInts(100000);
  CompactBTree<uint64_t> compact;
  CompressedBTree<uint64_t> compressed(8);
  compact.Build(Entries(keys));
  compressed.Build(Entries(keys));
  // Sequential ints compress extremely well.
  EXPECT_LT(compressed.MemoryBytes(), compact.MemoryBytes());
}

TEST(CompressedBTreeTest, ScanAcrossPages) {
  auto keys = GenMonoIncInts(1000);
  CompressedBTree<uint64_t, uint64_t, 64> t(4);
  t.Build(Entries(keys));
  std::vector<uint64_t> out;
  EXPECT_EQ(t.Scan(500, 200, &out), 200u);
  EXPECT_EQ(out[0], 500u);
  EXPECT_EQ(out[199], 699u);
}

TEST(PrefixBTreeTest, FindAndScan) {
  auto keys = GenUrls(20000);
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  PrefixBTree<> t;
  t.Build(keys, values);
  for (size_t i = 0; i < keys.size(); i += 13) {
    uint64_t v = 0;
    ASSERT_TRUE(t.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(t.Lookup("zzz/nonexistent"));

  Random rng(3);
  for (int q = 0; q < 300; ++q) {
    const std::string& probe = keys[rng.Uniform(keys.size())];
    std::vector<uint64_t> out;
    t.Scan(probe, 5, &out);
    auto it = std::lower_bound(keys.begin(), keys.end(), probe);
    for (size_t i = 0; i < out.size(); ++i, ++it)
      EXPECT_EQ(out[i], static_cast<uint64_t>(it - keys.begin()));
  }
}

TEST(PrefixBTreeTest, PrefixCompressionSavesMemory) {
  // URLs share deep prefixes: the prefix-truncated pages should be much
  // smaller than the raw key bytes.
  auto keys = GenUrls(50000);
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size(), 0);
  PrefixBTree<> t;
  t.Build(keys, values);
  // Baseline: a non-prefix static layout paying the same per-entry offset
  // and value overheads but storing every key byte.
  size_t baseline = 0;
  for (const auto& k : keys) baseline += k.size() + 8 + 4;
  EXPECT_LT(t.MemoryBytes(), baseline * 0.95);
}

}  // namespace
}  // namespace met
