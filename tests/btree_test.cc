// Tests for the dynamic B+tree and the Compact B+tree.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "btree/compact_btree.h"
#include "common/random.h"
#include "keys/keygen.h"
#include "gtest/gtest.h"

namespace met {
namespace {

TEST(BTreeTest, InsertFind) {
  BTree<uint64_t> tree;
  EXPECT_TRUE(tree.Insert(42, 100));
  EXPECT_FALSE(tree.Insert(42, 200));  // duplicate rejected
  uint64_t v = 0;
  EXPECT_TRUE(tree.Lookup(42, &v));
  EXPECT_EQ(v, 100u);
  EXPECT_FALSE(tree.Lookup(43));
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, UpdateErase) {
  BTree<uint64_t> tree;
  tree.Insert(1, 10);
  EXPECT_TRUE(tree.Update(1, 20));
  uint64_t v = 0;
  tree.Lookup(1, &v);
  EXPECT_EQ(v, 20u);
  EXPECT_FALSE(tree.Update(2, 5));
  EXPECT_TRUE(tree.Erase(1));
  EXPECT_FALSE(tree.Erase(1));
  EXPECT_FALSE(tree.Lookup(1));
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BTreeTest, MatchesStdMapRandom) {
  BTree<uint64_t> tree;
  std::map<uint64_t, uint64_t> ref;
  Random rng(7);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.Uniform(5000);
    switch (rng.Uniform(4)) {
      case 0:
        EXPECT_EQ(tree.Insert(k, i), ref.emplace(k, i).second);
        break;
      case 1: {
        bool in_ref = ref.count(k) > 0;
        if (in_ref) ref[k] = i;
        EXPECT_EQ(tree.Update(k, i), in_ref);
        break;
      }
      case 2:
        EXPECT_EQ(tree.Erase(k), ref.erase(k) > 0);
        break;
      default: {
        uint64_t v = 0;
        bool found = tree.Lookup(k, &v);
        auto it = ref.find(k);
        EXPECT_EQ(found, it != ref.end());
        if (found) {
          EXPECT_EQ(v, it->second);
        }
      }
    }
  }
  EXPECT_EQ(tree.size(), ref.size());
  // Full-order iteration must match.
  auto it = tree.Begin();
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, LowerBoundScan) {
  BTree<uint64_t> tree;
  for (uint64_t k = 0; k < 1000; k += 10) tree.Insert(k, k * 2);
  auto it = tree.LowerBound(25);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30u);
  std::vector<uint64_t> out;
  EXPECT_EQ(tree.Scan(980, 10, &out), 2u);  // 980, 990
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1960u);
  it = tree.LowerBound(10000);
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, StringKeys) {
  BTree<std::string> tree;
  std::vector<std::string> keys = GenEmails(5000);
  for (size_t i = 0; i < keys.size(); ++i) EXPECT_TRUE(tree.Insert(keys[i], i));
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(tree.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_GT(tree.MemoryBytes(), keys.size() * 8);
}

TEST(BTreeTest, LeafOccupancyAfterRandomInserts) {
  BTree<uint64_t> tree;
  auto keys = GenRandomInts(50000);
  for (auto k : keys) tree.Insert(k, 1);
  // Random inserts should land near the textbook ~69% occupancy.
  EXPECT_GT(tree.LeafOccupancy(), 0.60);
  EXPECT_LT(tree.LeafOccupancy(), 0.80);
}

TEST(BTreeTest, MonotonicInsertOccupancy) {
  BTree<uint64_t> tree;
  for (uint64_t k = 0; k < 50000; ++k) tree.Insert(k, 1);
  // Sequential inserts split nodes in half repeatedly -> ~50% occupancy.
  EXPECT_LT(tree.LeafOccupancy(), 0.60);
}

// ---------- Compact B+tree ----------

template <typename K>
std::vector<MergeEntry<K, uint64_t>> MakeEntries(const std::vector<K>& keys) {
  std::vector<MergeEntry<K, uint64_t>> entries;
  for (size_t i = 0; i < keys.size(); ++i)
    entries.push_back({keys[i], static_cast<uint64_t>(i), false});
  return entries;
}

TEST(CompactBTreeTest, BuildAndFindInt) {
  auto keys = GenRandomInts(30000);
  SortUnique(&keys);
  CompactBTree<uint64_t> tree;
  tree.Build(MakeEntries(keys));
  EXPECT_EQ(tree.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 17) {
    uint64_t v = 0;
    ASSERT_TRUE(tree.Lookup(keys[i], &v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(tree.Lookup(keys.back() + 1));
}

TEST(CompactBTreeTest, BuildAndFindString) {
  auto keys = GenEmails(20000);
  SortUnique(&keys);
  CompactBTree<std::string> tree;
  tree.Build(MakeEntries(keys));
  for (size_t i = 0; i < keys.size(); i += 13) {
    uint64_t v = 0;
    ASSERT_TRUE(tree.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(tree.Lookup(std::string("zzzz.nonexistent")));
}

TEST(CompactBTreeTest, LowerBoundMatchesStd) {
  auto keys = GenRandomInts(10000);
  SortUnique(&keys);
  CompactBTree<uint64_t> tree;
  tree.Build(MakeEntries(keys));
  Random rng(3);
  for (int t = 0; t < 5000; ++t) {
    uint64_t q = rng.Next();
    size_t expected = std::lower_bound(keys.begin(), keys.end(), q) - keys.begin();
    EXPECT_EQ(tree.LowerBoundIndex(q), expected);
  }
  // Probe exact keys too.
  for (size_t i = 0; i < keys.size(); i += 31)
    EXPECT_EQ(tree.LowerBoundIndex(keys[i]), i);
}

TEST(CompactBTreeTest, CompactSmallerThanDynamic) {
  auto keys = GenRandomInts(50000);
  BTree<uint64_t> dyn;
  for (auto k : keys) dyn.Insert(k, 1);
  SortUnique(&keys);
  CompactBTree<uint64_t> compact;
  compact.Build(MakeEntries(keys));
  // The thesis reports >30% savings for compacted B+trees (Fig 2.5).
  EXPECT_LT(compact.MemoryBytes(), dyn.MemoryBytes() * 0.7)
      << "compact=" << compact.MemoryBytes() << " dynamic=" << dyn.MemoryBytes();
}

TEST(CompactBTreeTest, ScanInOrder) {
  auto keys = GenRandomInts(5000);
  SortUnique(&keys);
  CompactBTree<uint64_t> tree;
  tree.Build(MakeEntries(keys));
  auto it = tree.Begin();
  for (size_t i = 0; i < keys.size(); ++i, it.Next()) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), keys[i]);
  }
  EXPECT_FALSE(it.Valid());
}

TEST(CompactBTreeTest, EmptyTree) {
  CompactBTree<uint64_t> tree;
  tree.Build({});
  EXPECT_FALSE(tree.Lookup(1));
  EXPECT_EQ(tree.LowerBoundIndex(0), 0u);
  EXPECT_FALSE(tree.Begin().Valid());
}

}  // namespace
}  // namespace met
