// Tests for BitVector, rank and select supports.
#include <map>
#include <vector>

#include "bitvec/bitvector.h"
#include "bitvec/rank.h"
#include "bitvec/select.h"
#include "common/bits.h"
#include "common/random.h"
#include "gtest/gtest.h"

namespace met {
namespace {

// ---- Word primitives (hardware popcount / PDEP when built with them) ----

int NaivePopCount(uint64_t x) {
  int n = 0;
  for (int i = 0; i < 64; ++i) n += (x >> i) & 1;
  return n;
}

/// Position of the r-th (0-based) set bit, or -1.
int NaiveSelect(uint64_t x, int r) {
  for (int i = 0; i < 64; ++i)
    if (((x >> i) & 1) && r-- == 0) return i;
  return -1;
}

void ExpectWordOps(uint64_t x) {
  const int ones = NaivePopCount(x);
  ASSERT_EQ(PopCount(x), ones) << std::hex << x;
  for (int r = 0; r < ones; ++r)
    ASSERT_EQ(SelectInWord(x, r), NaiveSelect(x, r)) << std::hex << x << " r=" << r;
}

TEST(BitsTest, PopCountAndSelectEdges) {
  ExpectWordOps(0);
  ExpectWordOps(~uint64_t{0});
  ExpectWordOps(uint64_t{1});
  ExpectWordOps(uint64_t{1} << 63);
  ExpectWordOps(0x8000000000000001ull);
  ExpectWordOps(0x5555555555555555ull);
  ExpectWordOps(0xAAAAAAAAAAAAAAAAull);
  for (int i = 0; i < 64; ++i) {
    ExpectWordOps(uint64_t{1} << i);
    ExpectWordOps(~(uint64_t{1} << i));
    ExpectWordOps(~uint64_t{0} >> i);
    ExpectWordOps(~uint64_t{0} << i);
  }
}

TEST(BitsTest, PopCountAndSelectRandomWords) {
  Random rng(11);
  for (int t = 0; t < 5000; ++t) {
    uint64_t x = rng.Next();
    // Thin some words out so sparse patterns are covered too.
    if (t % 3 == 1) x &= rng.Next();
    if (t % 3 == 2) x &= rng.Next() & rng.Next();
    ExpectWordOps(x);
  }
}

TEST(BitVectorTest, PushAndGet) {
  BitVector bv;
  for (int i = 0; i < 1000; ++i) bv.PushBack(i % 3 == 0);
  ASSERT_EQ(bv.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(bv.Get(i), i % 3 == 0) << i;
}

TEST(BitVectorTest, SetClear) {
  BitVector bv(200);
  EXPECT_FALSE(bv.Get(131));
  bv.Set(131);
  EXPECT_TRUE(bv.Get(131));
  bv.Clear(131);
  EXPECT_FALSE(bv.Get(131));
}

TEST(BitVectorTest, CountOnes) {
  BitVector bv;
  size_t expected = 0;
  Random rng(1);
  for (int i = 0; i < 5000; ++i) {
    bool b = rng.Uniform(2);
    bv.PushBack(b);
    expected += b;
  }
  EXPECT_EQ(bv.CountOnes(), expected);
}

TEST(BitVectorTest, NextSetBit) {
  BitVector bv(300);
  bv.Set(5);
  bv.Set(100);
  bv.Set(299);
  EXPECT_EQ(bv.NextSetBit(0), 5u);
  EXPECT_EQ(bv.NextSetBit(5), 5u);
  EXPECT_EQ(bv.NextSetBit(6), 100u);
  EXPECT_EQ(bv.NextSetBit(101), 299u);
  EXPECT_EQ(bv.NextSetBit(300), 300u);  // none -> size()
}

TEST(BitVectorTest, PushBits) {
  BitVector bv;
  bv.PushBits(0b1011, 4);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(1));
  EXPECT_FALSE(bv.Get(2));
  EXPECT_TRUE(bv.Get(3));
}

class RankSelectParamTest : public ::testing::TestWithParam<std::pair<double, uint32_t>> {};

TEST_P(RankSelectParamTest, MatchesNaive) {
  double density = GetParam().first;
  uint32_t block = GetParam().second;
  Random rng(42);
  BitVector bv;
  const size_t n = 20000;
  std::vector<size_t> prefix(n);  // naive inclusive rank
  size_t ones = 0;
  for (size_t i = 0; i < n; ++i) {
    bool b = rng.NextDouble() < density;
    bv.PushBack(b);
    ones += b;
    prefix[i] = ones;
  }

  RankSupport rank(&bv, block);
  PoppyRank poppy(&bv);
  for (size_t i = 0; i < n; i += 7) {
    EXPECT_EQ(rank.Rank1(i), prefix[i]) << "pos " << i;
    EXPECT_EQ(poppy.Rank1(i), prefix[i]) << "pos " << i;
    EXPECT_EQ(rank.Rank0(i), i + 1 - prefix[i]);
  }

  if (ones > 0) {
    SelectSupport select(&bv, 64);
    // Naive select check.
    size_t r = 0;
    for (size_t i = 0; i < n; ++i) {
      if (bv.Get(i)) {
        ++r;
        if (r % 13 == 0 || r == 1 || r == ones) {
          EXPECT_EQ(select.Select1(r), i) << "rank " << r;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, RankSelectParamTest,
                         ::testing::Values(std::make_pair(0.01, 64u),
                                           std::make_pair(0.2, 64u),
                                           std::make_pair(0.5, 512u),
                                           std::make_pair(0.9, 512u),
                                           std::make_pair(0.999, 256u)));

TEST(SelectTest, SparseSamples) {
  // Set bits far apart to exercise multi-word scans between samples.
  BitVector bv(100000);
  std::vector<size_t> positions;
  for (size_t i = 0; i < 100000; i += 997) {
    bv.Set(i);
    positions.push_back(i);
  }
  SelectSupport select(&bv, 16);
  for (size_t r = 1; r <= positions.size(); ++r)
    EXPECT_EQ(select.Select1(r), positions[r - 1]);
}

TEST(RankTest, SingleWordEdges) {
  BitVector bv;
  bv.PushBack(true);
  RankSupport rank(&bv, 64);
  EXPECT_EQ(rank.Rank1(0), 1u);
}

}  // namespace
}  // namespace met
