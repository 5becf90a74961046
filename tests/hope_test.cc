// Tests for HOPE: order preservation (the core invariant), completeness on
// arbitrary byte strings, compression-rate ordering across schemes, batch
// encoding equivalence, and exactness of the Garsia-Wachs code builder.
#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "hope/alphabetic_code.h"
#include "hope/hope.h"
#include "keys/keygen.h"
#include "gtest/gtest.h"

namespace met {
namespace {

// ---------- alphabetic codes ----------

// Brute-force optimal alphabetic tree cost via interval DP.
uint64_t OptimalAlphabeticCost(const std::vector<uint64_t>& w) {
  size_t n = w.size();
  std::vector<std::vector<uint64_t>> dp(n, std::vector<uint64_t>(n, 0));
  std::vector<uint64_t> prefix(n + 1, 0);
  for (size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + w[i];
  for (size_t len = 2; len <= n; ++len)
    for (size_t i = 0; i + len <= n; ++i) {
      size_t j = i + len - 1;
      uint64_t best = ~0ull;
      for (size_t k = i; k < j; ++k)
        best = std::min(best, dp[i][k] + dp[k + 1][j]);
      dp[i][j] = best + (prefix[j + 1] - prefix[i]);
    }
  return dp[0][n - 1];
}

TEST(AlphabeticCodeTest, GarsiaWachsMatchesBruteForce) {
  Random rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    size_t n = 2 + rng.Uniform(14);
    std::vector<uint64_t> w(n);
    for (auto& x : w) x = 1 + rng.Uniform(100);
    std::vector<int> depths = GarsiaWachsDepths(w);
    uint64_t cost = 0;
    for (size_t i = 0; i < n; ++i) cost += w[i] * depths[i];
    EXPECT_EQ(cost, OptimalAlphabeticCost(w)) << "trial " << trial;
    // Kraft equality: the depths describe a full binary tree.
    double kraft = 0;
    for (int d : depths) kraft += std::pow(0.5, d);
    EXPECT_NEAR(kraft, 1.0, 1e-9);
    EXPECT_TRUE(CodesAreOrderPreservingPrefixFree(CodesFromDepths(depths)));
  }
}

TEST(AlphabeticCodeTest, BalancedCodesValid) {
  Random rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 2 + rng.Uniform(5000);
    std::vector<uint64_t> w(n);
    for (auto& x : w) x = 1 + rng.Uniform(1000);
    auto codes = BalancedAlphabeticCodes(w);
    EXPECT_TRUE(CodesAreOrderPreservingPrefixFree(codes));
    for (const auto& c : codes) EXPECT_LE(c.len, 64);
  }
}

TEST(AlphabeticCodeTest, BalancedNearEntropy) {
  // Skewed distribution: balanced-split average length within ~2 bits of
  // entropy.
  std::vector<uint64_t> w(256);
  for (size_t i = 0; i < w.size(); ++i) w[i] = 1 + 100000 / (i + 1);
  auto codes = BalancedAlphabeticCodes(w);
  double total = 0, weighted_len = 0, entropy = 0;
  for (auto x : w) total += x;
  for (size_t i = 0; i < w.size(); ++i) {
    double p = w[i] / total;
    weighted_len += p * codes[i].len;
    entropy += -p * std::log2(p);
  }
  EXPECT_LT(weighted_len, entropy + 2.0);
}

TEST(AlphabeticCodeTest, FixedLengthCodes) {
  auto codes = FixedLengthCodes(1000);
  EXPECT_EQ(codes[0].len, 10);  // ceil(log2(1000))
  EXPECT_TRUE(CodesAreOrderPreservingPrefixFree(codes));
}

// ---------- HOPE ----------

const HopeScheme kAllSchemes[] = {
    HopeScheme::kSingleChar, HopeScheme::kDoubleChar, HopeScheme::k3Grams,
    HopeScheme::k4Grams,     HopeScheme::kAlm,        HopeScheme::kAlmImproved,
};

class HopeSchemeTest : public ::testing::TestWithParam<HopeScheme> {};

TEST_P(HopeSchemeTest, OrderPreservingOnEmails) {
  auto sample = GenEmails(3000, 101);
  HopeEncoder enc;
  enc.Build(sample, GetParam(), 1 << 12);

  auto keys = GenEmails(5000, 202);
  SortUnique(&keys);
  std::string prev_enc = enc.Encode(keys[0]);
  for (size_t i = 1; i < keys.size(); ++i) {
    std::string e = enc.Encode(keys[i]);
    EXPECT_LT(prev_enc, e) << keys[i - 1] << " vs " << keys[i];
    prev_enc = std::move(e);
  }
}

TEST_P(HopeSchemeTest, CompleteOnArbitraryBytes) {
  auto sample = GenEmails(1000, 1);
  HopeEncoder enc;
  enc.Build(sample, GetParam(), 1 << 10);
  // Keys the dictionary never saw, including high bytes and NULs.
  Random rng(7);
  std::string prev;
  std::vector<std::string> keys;
  for (int t = 0; t < 2000; ++t) {
    std::string k(1 + rng.Uniform(24), '\0');
    for (auto& c : k) c = static_cast<char>(rng.Uniform(256));
    keys.push_back(std::move(k));
  }
  SortUnique(&keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    std::string e = enc.Encode(keys[i]);
    EXPECT_FALSE(e.empty());
    if (i > 0) {
      EXPECT_LE(prev, e);
    }
    prev = std::move(e);
  }
}

TEST_P(HopeSchemeTest, BatchMatchesIndividual) {
  auto sample = GenEmails(2000, 3);
  HopeEncoder enc;
  enc.Build(sample, GetParam(), 1 << 12);
  auto keys = GenEmails(3000, 4);
  SortUnique(&keys);
  std::vector<std::string> batch;
  enc.EncodeBatch(keys, &batch);
  ASSERT_EQ(batch.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(batch[i], enc.Encode(keys[i])) << keys[i];
}

INSTANTIATE_TEST_SUITE_P(Schemes, HopeSchemeTest,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const ::testing::TestParamInfo<HopeScheme>& info) {
                           std::string n = HopeSchemeName(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
                           return n;
                         });

TEST(HopeTest, CompressesEmails) {
  auto sample = GenEmails(5000, 9);
  auto keys = GenEmails(30000, 10);
  for (HopeScheme s : kAllSchemes) {
    HopeEncoder enc;
    enc.Build(sample, s, 1 << 14);
    double cpr = enc.Cpr(keys);
    EXPECT_GT(cpr, 1.2) << HopeSchemeName(s);
  }
}

TEST(HopeTest, GramsBeatSingleChar) {
  auto sample = GenEmails(5000, 11);
  auto keys = GenEmails(20000, 12);
  HopeEncoder single, grams3;
  single.Build(sample, HopeScheme::kSingleChar);
  grams3.Build(sample, HopeScheme::k3Grams, 1 << 14);
  EXPECT_GT(grams3.Cpr(keys), single.Cpr(keys));
}

TEST(HopeTest, AlmImprovedBeatsAlm) {
  auto sample = GenEmails(5000, 13);
  auto keys = GenEmails(20000, 14);
  HopeEncoder alm, almi;
  alm.Build(sample, HopeScheme::kAlm, 1 << 14);
  almi.Build(sample, HopeScheme::kAlmImproved, 1 << 14);
  EXPECT_GT(almi.Cpr(keys), alm.Cpr(keys));
}

TEST(HopeTest, IntKeysSafeAndOrdered) {
  // Fixed-length binary keys (64-bit ints) must stay order-preserved.
  auto sample_ints = GenRandomInts(5000, 15);
  auto sample = ToStringKeys(sample_ints);
  HopeEncoder enc;
  enc.Build(sample, HopeScheme::kDoubleChar);
  auto ints = GenRandomInts(20000, 16);
  SortUnique(&ints);
  auto keys = ToStringKeys(ints);
  std::string prev = enc.Encode(keys[0]);
  for (size_t i = 1; i < keys.size(); ++i) {
    std::string e = enc.Encode(keys[i]);
    EXPECT_LT(prev, e);
    prev = std::move(e);
  }
}

TEST(HopeTest, DictMemoryOrdering) {
  auto sample = GenEmails(5000, 17);
  HopeEncoder single, grams;
  single.Build(sample, HopeScheme::kSingleChar);
  grams.Build(sample, HopeScheme::k3Grams, 1 << 14);
  EXPECT_LT(single.DictMemoryBytes(), grams.DictMemoryBytes());
}

TEST(HopeTest, SampleSizeStability) {
  // Fig 6.8: compression rate is stable down to small samples.
  auto keys = GenEmails(50000, 18);
  auto sample_big = std::vector<std::string>(keys.begin(), keys.begin() + 10000);
  auto sample_small = std::vector<std::string>(keys.begin(), keys.begin() + 500);
  HopeEncoder big, small;
  big.Build(sample_big, HopeScheme::k3Grams, 1 << 14);
  small.Build(sample_small, HopeScheme::k3Grams, 1 << 14);
  double cb = big.Cpr(keys), cs = small.Cpr(keys);
  EXPECT_NEAR(cs, cb, cb * 0.15);
}

TEST(HopeTest, EncodeEmptyKey) {
  auto sample = GenEmails(100, 19);
  HopeEncoder enc;
  enc.Build(sample, HopeScheme::kSingleChar);
  EXPECT_TRUE(enc.Encode("").empty());
}

}  // namespace
}  // namespace met
