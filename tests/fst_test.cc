// Tests for the Fast Succinct Trie: exact lookups, lower-bound iteration,
// range counts across dense/sparse splits, and tries shaped to hit the
// LOUDS-Sparse block boundaries.
#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "fst/fst.h"
#include "keys/keygen.h"
#include "gtest/gtest.h"

namespace met {
namespace {

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(FstTest, TinyExample) {
  // The Figure 3.2 example trie: f, far, fas, fast, fat, s, top, toy, trie,
  // trip, try.
  std::vector<std::string> keys = {"f",   "far", "fas", "fast", "fat", "s",
                                   "top", "toy", "trie", "trip", "try"};
  std::sort(keys.begin(), keys.end());
  Fst fst;
  fst.Build(keys, Iota(keys.size()));
  EXPECT_EQ(fst.num_keys(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = ~0ull;
    ASSERT_TRUE(fst.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i) << keys[i];
  }
  EXPECT_FALSE(fst.Lookup("fa"));
  EXPECT_FALSE(fst.Lookup("fasts"));
  EXPECT_FALSE(fst.Lookup("t"));
  EXPECT_FALSE(fst.Lookup("z"));
  EXPECT_FALSE(fst.Lookup(""));
}

struct FstConfigCase {
  const char* name;
  FstConfig config;
};

FstConfig MakeConfig(int dense_levels) {
  FstConfig c;
  c.max_dense_levels = dense_levels;
  return c;
}

class FstAllConfigsTest : public ::testing::TestWithParam<FstConfigCase> {};

TEST_P(FstAllConfigsTest, EmailsFullMode) {
  auto keys = GenEmails(20000);
  SortUnique(&keys);
  Fst fst;
  fst.Build(keys, Iota(keys.size()), GetParam().config);

  // Every stored key found with the right value.
  for (size_t i = 0; i < keys.size(); i += 7) {
    uint64_t v = ~0ull;
    ASSERT_TRUE(fst.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  // Absent keys rejected (full-key mode is exact).
  Random rng(3);
  for (int t = 0; t < 2000; ++t) {
    std::string q = keys[rng.Uniform(keys.size())];
    q += static_cast<char>('0' + rng.Uniform(10));
    if (!std::binary_search(keys.begin(), keys.end(), q)) {
      EXPECT_FALSE(fst.Lookup(q));
    }
    std::string q2 = keys[rng.Uniform(keys.size())];
    if (!q2.empty()) q2.pop_back();
    if (!std::binary_search(keys.begin(), keys.end(), q2)) {
      EXPECT_FALSE(fst.Lookup(q2)) << q2;
    }
  }
}

TEST_P(FstAllConfigsTest, IterationMatchesSorted) {
  auto keys = GenEmails(10000);
  SortUnique(&keys);
  Fst fst;
  fst.Build(keys, Iota(keys.size()), GetParam().config);
  auto it = fst.Begin();
  for (size_t i = 0; i < keys.size(); ++i, it.Next()) {
    ASSERT_TRUE(it.Valid()) << i;
    EXPECT_EQ(it.key(), keys[i]);
    EXPECT_EQ(it.value(), i);
  }
  EXPECT_FALSE(it.Valid());
}

TEST_P(FstAllConfigsTest, LowerBoundMatchesStd) {
  auto keys = GenEmails(8000);
  SortUnique(&keys);
  Fst fst;
  fst.Build(keys, Iota(keys.size()), GetParam().config);
  Random rng(5);
  for (int t = 0; t < 1000; ++t) {
    std::string q;
    switch (t % 4) {
      case 0:
        q = keys[rng.Uniform(keys.size())];
        break;
      case 1:
        q = keys[rng.Uniform(keys.size())];
        q = q.substr(0, rng.Uniform(q.size() + 1));
        break;
      case 2:
        q = keys[rng.Uniform(keys.size())] + "x";
        break;
      default: {
        q = keys[rng.Uniform(keys.size())];
        if (!q.empty()) q.back() = static_cast<char>(q.back() + 1);
        break;
      }
    }
    auto expect = std::lower_bound(keys.begin(), keys.end(), q);
    auto it = fst.LowerBound(q);
    if (expect == keys.end()) {
      EXPECT_FALSE(it.Valid()) << q;
    } else {
      ASSERT_TRUE(it.Valid()) << q;
      EXPECT_EQ(it.key(), *expect) << q;
      // And the successor matches too.
      it.Next();
      if (expect + 1 == keys.end()) {
        EXPECT_FALSE(it.Valid());
      } else {
        ASSERT_TRUE(it.Valid());
        EXPECT_EQ(it.key(), *(expect + 1));
      }
    }
  }
}

TEST_P(FstAllConfigsTest, CountRangeMatchesBruteForce) {
  auto keys = GenEmails(5000);
  SortUnique(&keys);
  Fst fst;
  fst.Build(keys, Iota(keys.size()), GetParam().config);
  Random rng(7);
  for (int t = 0; t < 500; ++t) {
    std::string a = keys[rng.Uniform(keys.size())];
    std::string b = keys[rng.Uniform(keys.size())];
    if (t % 3 == 0) a = a.substr(0, rng.Uniform(a.size() + 1));
    if (t % 5 == 0) b += "zz";
    if (b < a) std::swap(a, b);
    uint64_t expect = std::lower_bound(keys.begin(), keys.end(), b) -
                      std::lower_bound(keys.begin(), keys.end(), a);
    EXPECT_EQ(fst.CountRange(a, b), expect) << "[" << a << ", " << b << ")";
  }
  EXPECT_EQ(fst.CountRange("", "\xff\xff\xff"), keys.size());
  EXPECT_EQ(fst.CountRange("a", "a"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, FstAllConfigsTest,
    ::testing::Values(
        FstConfigCase{"default", MakeConfig(-1)},
        FstConfigCase{"sparse_only", MakeConfig(0)},
        FstConfigCase{"one_dense", MakeConfig(1)},
        FstConfigCase{"two_dense", MakeConfig(2)},
        FstConfigCase{"all_dense", MakeConfig(64)}),
    [](const ::testing::TestParamInfo<FstConfigCase>& info) {
      return info.param.name;
    });

// ---- LOUDS-Sparse block boundaries ----
//
// A block holds 96 labels. These tries put node starts, child pointers and
// the terminator on either side of block edges; each is checked against
// std::map for Lookup, LowerBound, the iterator and CountRange, and
// LookupBatch against scalar Lookup, sparse-only and with one dense level.

/// Two-byte keys: `fanout` first bytes, each followed by `per` second bytes.
/// Sparse-only, that is fanout + fanout * per labels.
std::vector<std::string> TwoLevelKeys(int fanout, int per) {
  std::vector<std::string> keys;
  for (int a = 0; a < fanout; ++a)
    for (int b = 0; b < per; ++b)
      keys.push_back(std::string{static_cast<char>(a + 1),
                                 static_cast<char>(2 * b + 1)});
  return keys;
}

void ExpectMatchesMap(const std::vector<std::string>& keys,
                      const FstConfig& config, const char* what) {
  SCOPED_TRACE(what);
  std::map<std::string, uint64_t> oracle;
  for (size_t i = 0; i < keys.size(); ++i) oracle[keys[i]] = i * 7 + 1;
  std::vector<std::string> sorted;
  std::vector<uint64_t> values;
  for (const auto& [k, v] : oracle) {
    sorted.push_back(k);
    values.push_back(v);
  }
  Fst fst;
  fst.Build(sorted, values, config);

  // Iterator: every key in order with its value.
  auto it = fst.Begin();
  for (const auto& [k, v] : oracle) {
    ASSERT_TRUE(it.Valid()) << k;
    ASSERT_EQ(it.key(), k);
    ASSERT_EQ(it.value(), v);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());

  // Probes: every key, its neighbours, prefixes and extensions.
  std::vector<std::string> probes = {"", std::string(1, '\0'), "\xff\xff"};
  for (const std::string& k : sorted) {
    probes.push_back(k);
    probes.push_back(k + '\0');
    probes.push_back(k.substr(0, k.size() - 1));
    std::string up = k, down = k;
    up.back() = static_cast<char>(up.back() + 1);
    down.back() = static_cast<char>(down.back() - 1);
    probes.push_back(up);
    probes.push_back(down);
  }
  for (const std::string& q : probes) {
    auto want = oracle.find(q);
    uint64_t v = 0;
    ASSERT_EQ(fst.Lookup(q, &v), want != oracle.end()) << q;
    if (want != oracle.end()) {
      ASSERT_EQ(v, want->second) << q;
    }

    auto lb = oracle.lower_bound(q);
    auto got = fst.LowerBound(q);
    ASSERT_EQ(got.Valid(), lb != oracle.end()) << q;
    if (lb != oracle.end()) {
      ASSERT_EQ(got.key(), lb->first) << q;
    }
  }
  for (size_t i = 0; i < probes.size(); i += 3) {
    std::string lo = probes[i], hi = probes[(i * 7 + 5) % probes.size()];
    if (hi < lo) std::swap(lo, hi);
    uint64_t want = std::distance(oracle.lower_bound(lo), oracle.lower_bound(hi));
    ASSERT_EQ(fst.CountRange(lo, hi), want) << "[" << lo << ", " << hi << ")";
  }

  // Batched lookups agree with scalar ones.
  std::vector<std::string_view> views(probes.begin(), probes.end());
  std::vector<LookupResult> batch(views.size());
  fst.LookupBatch(views.data(), views.size(), batch.data());
  for (size_t i = 0; i < views.size(); ++i) {
    uint64_t v = 0;
    bool found = fst.Lookup(views[i], &v);
    ASSERT_EQ(batch[i].found, found) << probes[i];
    if (found) {
      ASSERT_EQ(batch[i].value, v) << probes[i];
    }
  }
}

TEST(FstBlockTest, BoundaryShapes) {
  struct Shape {
    const char* name;
    std::vector<std::string> keys;
  };
  std::vector<Shape> shapes;
  // One 200-label node straddles three blocks.
  shapes.push_back({"straddling node", TwoLevelKeys(1, 200)});
  // 100 root labels, each with a 100-label child: block 1 starts inside the
  // root, and its first child lies dozens of blocks later.
  shapes.push_back({"child far ahead", TwoLevelKeys(100, 100)});
  // Exactly 96 * 2 labels (32 + 160): the terminator opens a block.
  shapes.push_back({"labels == 192", TwoLevelKeys(32, 5)});
  // 95 labels (19 + 76): terminator at 95, its guard bit in the next block.
  shapes.push_back({"labels == 95", TwoLevelKeys(19, 4)});
  // Chains of single-label nodes, prefix keys (0xFF markers) and real 0xFF
  // labels, over several blocks.
  std::vector<std::string> chains;
  for (int i = 0; i < 150; ++i) {
    std::string k = "chain" + std::to_string(i * 37 % 1000);
    chains.push_back(k);
    if (i % 3 == 0) chains.push_back(k + "/leaf");
    if (i % 5 == 0) chains.push_back(k + "\xff");
  }
  shapes.push_back({"chains and markers", chains});
  auto emails = GenEmails(3000);
  SortUnique(&emails);
  shapes.push_back({"emails", emails});

  for (const Shape& shape : shapes) {
    ExpectMatchesMap(shape.keys, MakeConfig(0), shape.name);
    ExpectMatchesMap(shape.keys, MakeConfig(1), shape.name);
  }
}

TEST(FstBlockTest, SparseLabelCountsHitBlockMultiples) {
  FstConfig sparse_only = MakeConfig(0);
  for (auto [fanout, per, labels] :
       {std::tuple{32, 5, 192}, std::tuple{19, 4, 95}, std::tuple{48, 1, 96}}) {
    auto keys = TwoLevelKeys(fanout, per);
    Fst fst;
    fst.Build(keys, Iota(keys.size()), sparse_only);
    EXPECT_EQ(fst.FlattenSparse().labels.size(), static_cast<size_t>(labels));
  }
}

TEST(FstTest, IntegerKeys) {
  auto ints = GenRandomInts(50000);
  SortUnique(&ints);
  auto keys = ToStringKeys(ints);
  Fst fst;
  fst.Build(keys, Iota(keys.size()));
  for (size_t i = 0; i < keys.size(); i += 31) {
    uint64_t v = 0;
    ASSERT_TRUE(fst.Lookup(keys[i], &v));
    EXPECT_EQ(v, i);
  }
  // Random-integer tries have dense fanout near the root; the auto cutoff
  // should pick at least one dense level.
  EXPECT_GE(fst.dense_levels(), 1u);
}

TEST(FstTest, MinUniquePrefixMode) {
  std::vector<std::string> keys = {"SIGAI", "SIGMOD", "SIGOPS"};
  std::sort(keys.begin(), keys.end());
  FstConfig cfg;
  cfg.mode = FstConfig::Mode::kMinUniquePrefix;
  Fst fst;
  fst.Build(keys, Iota(keys.size()), cfg);
  // Stored keys are found.
  for (const auto& k : keys) EXPECT_TRUE(fst.LookupPath(k).found) << k;
  // The Section 4.1.1 false positive: SIGMETRICS collides with SIGMOD's
  // truncated prefix "SIGM".
  EXPECT_TRUE(fst.LookupPath("SIGMETRICS").found);
  // Queries diverging within the stored prefix are true negatives.
  EXPECT_FALSE(fst.LookupPath("SIGX").found);
  EXPECT_FALSE(fst.LookupPath("TENET").found);
}

TEST(FstTest, MinUniquePrefixNoFalseNegatives) {
  auto keys = GenEmails(20000);
  SortUnique(&keys);
  FstConfig cfg;
  cfg.mode = FstConfig::Mode::kMinUniquePrefix;
  Fst fst;
  fst.Build(keys, Iota(keys.size()), cfg);
  for (const auto& k : keys) EXPECT_TRUE(fst.LookupPath(k).found) << k;
  // Truncation shrinks the trie.
  FstConfig full;
  Fst fst_full;
  fst_full.Build(keys, Iota(keys.size()), full);
  EXPECT_LT(fst.FilterMemoryBytes(), fst_full.FilterMemoryBytes());
}

TEST(FstTest, PrefixKeysAndMarkers) {
  std::vector<std::string> keys = {"a", "ab", "abc", "abcd", "b", "ba"};
  Fst fst;
  fst.Build(keys, Iota(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(fst.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  // Iteration order includes prefix keys first.
  auto it = fst.Begin();
  for (size_t i = 0; i < keys.size(); ++i, it.Next()) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), keys[i]);
  }
}

TEST(FstTest, RealFFLabelVsMarker) {
  // Keys exercising real 0xFF labels alongside prefix markers.
  std::string ff(1, '\xff');
  std::vector<std::string> keys = {"a", "a" + ff, "a" + ff + ff, "a" + ff + "x"};
  std::sort(keys.begin(), keys.end());
  Fst fst;
  fst.Build(keys, Iota(keys.size()));
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 0;
    ASSERT_TRUE(fst.Lookup(keys[i], &v)) << i;
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(fst.Lookup("a" + ff + "y"));
  auto it = fst.Begin();
  for (size_t i = 0; i < keys.size(); ++i, it.Next()) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), keys[i]) << i;
  }
}

TEST(FstTest, TenBitsPerNodeSparse) {
  // LOUDS-Sparse encodes a label in 10 bits, 10.67 with the blocks' inline
  // rank and child pointer (Section 3.5); check the overall footprint is in
  // that ballpark for a sparse-only full trie.
  auto keys = GenEmails(50000);
  SortUnique(&keys);
  FstConfig cfg;
  cfg.max_dense_levels = 0;
  Fst fst;
  fst.Build(keys, Iota(keys.size()), cfg);
  // Count trie "nodes" as labels (each label is an edge; nodes ~ labels).
  double bits_per_label =
      8.0 * fst.FilterMemoryBytes() /
      static_cast<double>(fst.num_leaves() + fst.num_nodes());
  EXPECT_LT(bits_per_label, 14.0);
}

TEST(FstTest, LowerBoundFpFlagForSurf) {
  std::vector<std::string> keys = {"SIGAI", "SIGMOD", "SIGOPS"};
  std::sort(keys.begin(), keys.end());
  FstConfig cfg;
  cfg.mode = FstConfig::Mode::kMinUniquePrefix;
  Fst fst;
  fst.Build(keys, Iota(keys.size()), cfg);
  bool fp = false;
  // Stored path "SIGM" is a strict prefix of the query: fp flag set, cursor
  // stays (SuRF uses the suffix bits to disambiguate).
  auto it = fst.LowerBound("SIGMETRICS", &fp);
  ASSERT_TRUE(it.Valid());
  EXPECT_TRUE(fp);
  EXPECT_EQ(it.key(), "SIGM");
  // Exact-prefix query: no fp.
  fp = true;
  it = fst.LowerBound("SIGA", &fp);
  ASSERT_TRUE(it.Valid());
  EXPECT_FALSE(fp);
  EXPECT_EQ(it.key(), "SIGA");
}

TEST(FstTest, EmptyTrie) {
  Fst fst;
  fst.Build({}, {});
  EXPECT_FALSE(fst.Lookup("x"));
  EXPECT_FALSE(fst.Begin().Valid());
  EXPECT_EQ(fst.CountRange("a", "z"), 0u);
}

TEST(FstTest, SingleKey) {
  Fst fst;
  fst.Build({"hello"}, {42});
  uint64_t v = 0;
  EXPECT_TRUE(fst.Lookup("hello", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(fst.Lookup("hell"));
  EXPECT_FALSE(fst.Lookup("helloo"));
  auto it = fst.Begin();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), "hello");
  it.Next();
  EXPECT_FALSE(it.Valid());
}

TEST(FstTest, SmallerThanPointerTries) {
  // Full-key FST should be far smaller than 8-byte-pointer structures:
  // sanity bound of < 3 bytes per key for emails.
  auto keys = GenEmails(50000);
  SortUnique(&keys);
  Fst fst;
  FstConfig cfg;
  cfg.store_values = false;
  fst.Build(keys, {}, cfg);
  double bytes_per_key =
      static_cast<double>(fst.FilterMemoryBytes()) / keys.size();
  EXPECT_LT(bytes_per_key, 40.0);
}

}  // namespace
}  // namespace met
