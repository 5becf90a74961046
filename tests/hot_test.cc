// Tests for the static Height-Optimized Trie.
#include <algorithm>
#include <string>

#include "common/random.h"
#include "hot/hot.h"
#include "keys/keygen.h"
#include "gtest/gtest.h"

namespace met {
namespace {

TEST(HotTest, BasicFind) {
  std::vector<std::string> keys = {"apple", "banana", "cherry", "date"};
  std::vector<uint64_t> vals = {1, 2, 3, 4};
  Hot hot;
  hot.Build(keys, vals);
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(hot.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, vals[i]);
  }
  EXPECT_FALSE(hot.Lookup("apricot"));
  EXPECT_FALSE(hot.Lookup("zzz"));
  EXPECT_FALSE(hot.Lookup("appl"));
  EXPECT_FALSE(hot.Lookup("applex"));
}

TEST(HotTest, EmailDatasetExact) {
  auto keys = GenEmails(50000);
  SortUnique(&keys);
  std::vector<uint64_t> vals(keys.size());
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = i;
  Hot hot;
  hot.Build(keys, vals);
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(hot.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  // Near-miss probes are true negatives (full-key verification at leaves).
  Random rng(3);
  for (int t = 0; t < 5000; ++t) {
    std::string q = keys[rng.Uniform(keys.size())];
    q.back() = static_cast<char>(q.back() ^ 1);
    if (!std::binary_search(keys.begin(), keys.end(), q)) {
      EXPECT_FALSE(hot.Lookup(q)) << q;
    }
  }
}

TEST(HotTest, IntKeys) {
  auto ints = GenRandomInts(100000);
  SortUnique(&ints);
  auto keys = ToStringKeys(ints);
  std::vector<uint64_t> vals(ints.begin(), ints.end());
  Hot hot;
  hot.Build(keys, vals);
  for (size_t i = 0; i < keys.size(); i += 7) {
    uint64_t v = 0;
    ASSERT_TRUE(hot.Lookup(keys[i], &v));
    EXPECT_EQ(v, ints[i]);
  }
}

TEST(HotTest, HeightIsLogarithmicInFanout32) {
  auto keys = GenEmails(100000);
  SortUnique(&keys);
  std::vector<uint64_t> vals(keys.size(), 0);
  Hot hot;
  hot.Build(keys, vals);
  // ceil(log32(100K)) == 4; allow +2 slack for the greedy packing.
  EXPECT_LE(hot.Height(), 6u);
  EXPECT_GE(hot.Height(), 3u);
}

TEST(HotTest, MemoryBetweenArtAndRawKeys) {
  auto keys = GenUrls(50000);
  SortUnique(&keys);
  std::vector<uint64_t> vals(keys.size(), 0);
  Hot hot;
  hot.Build(keys, vals);
  size_t raw = 0;
  for (const auto& k : keys) raw += k.size() + 8;
  // Leaves store full keys, so memory is at least raw; node overhead is
  // bounded (~16 bytes per entry + bit sets).
  EXPECT_GT(hot.MemoryBytes(), raw);
  EXPECT_LT(hot.MemoryBytes(), raw + keys.size() * 64);
}

TEST(HotTest, EmptyAndSingle) {
  Hot hot;
  hot.Build({}, {});
  EXPECT_FALSE(hot.Lookup("x"));
  Hot one;
  one.Build({"solo"}, {9});
  uint64_t v = 0;
  EXPECT_TRUE(one.Lookup("solo", &v));
  EXPECT_EQ(v, 9u);
  EXPECT_FALSE(one.Lookup("sol"));
}

}  // namespace
}  // namespace met
