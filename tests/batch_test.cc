// Batched-vs-scalar parity for the FST batch kernel (pinned seeds).
//
// Fst::LookupPathBatch and Fst::LookupBatch promise results bit-identical to
// running LookupPath / Lookup key by key; these tests enforce that promise
// over hits, misses, prefix keys, duplicate queries, empty inputs and ragged
// batch sizes, across the FST config matrix (dense-only, sparse-only, the
// dense-to-sparse handoff) and the truncated (SuRF) mode.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "fst/fst.h"

namespace met {
namespace {

std::string IntKey(uint64_t v) {
  std::string s(8, '\0');
  for (int i = 7; i >= 0; --i) {
    s[i] = static_cast<char>(v & 0xFF);
    v >>= 8;
  }
  return s;
}

/// Sorted unique stored keys plus a query mix of ~50% hits, misses, prefixes
/// of stored keys, and extensions of stored keys — the cases where batched
/// descent could plausibly diverge from scalar.
struct Dataset {
  std::vector<std::string> stored;
  std::vector<std::string> queries;
};

Dataset MakeDataset(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  Dataset d;
  d.stored.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng() % 4 == 0) {
      // Variable-length byte strings, some sharing long prefixes.
      std::string k = "k" + std::to_string(rng() % (n / 2 + 1));
      if (rng() % 3 == 0) k += std::string(rng() % 20, 'x');
      d.stored.push_back(k);
    } else {
      d.stored.push_back(IntKey(rng() % (4 * n)));
    }
  }
  std::sort(d.stored.begin(), d.stored.end());
  d.stored.erase(std::unique(d.stored.begin(), d.stored.end()),
                 d.stored.end());
  for (size_t i = 0; i < 2 * n; ++i) {
    switch (rng() % 5) {
      case 0:
        d.queries.push_back(IntKey(rng() % (4 * n)));  // random (mostly miss)
        break;
      case 1:
      case 2:
        d.queries.push_back(d.stored[rng() % d.stored.size()]);  // hit
        break;
      case 3: {  // strict prefix of a stored key
        const std::string& k = d.stored[rng() % d.stored.size()];
        d.queries.push_back(k.substr(0, rng() % (k.size() + 1)));
        break;
      }
      default:  // extension of a stored key
        d.queries.push_back(d.stored[rng() % d.stored.size()] + "z");
        break;
    }
  }
  d.queries.push_back("");  // empty key
  // Duplicates inside one batch.
  d.queries.push_back(d.stored[0]);
  d.queries.push_back(d.stored[0]);
  return d;
}

std::vector<std::string_view> Views(const std::vector<std::string>& keys) {
  return {keys.begin(), keys.end()};
}

void ExpectFstParity(const Fst& fst, const std::vector<std::string>& queries) {
  std::vector<std::string_view> q = Views(queries);
  // Ragged sizes cover the partial-group tail inside the kernel.
  for (size_t batch : {size_t{1}, size_t{3}, size_t{16}, size_t{64}, q.size()}) {
    std::vector<Fst::PathResult> got(q.size());
    std::vector<LookupResult> got_lr(q.size());
    for (size_t base = 0; base < q.size(); base += batch) {
      size_t g = std::min(batch, q.size() - base);
      fst.LookupPathBatch(q.data() + base, g, got.data() + base);
      fst.LookupBatch(q.data() + base, g, got_lr.data() + base);
    }
    for (size_t i = 0; i < q.size(); ++i) {
      Fst::PathResult ref = fst.LookupPath(q[i]);
      ASSERT_EQ(got[i].found, ref.found) << "key " << i << " batch " << batch;
      ASSERT_EQ(got[i].leaf_id, ref.leaf_id) << "key " << i;
      ASSERT_EQ(got[i].depth, ref.depth) << "key " << i;
      ASSERT_EQ(got[i].is_prefix_leaf, ref.is_prefix_leaf) << "key " << i;
      uint64_t v = 0;
      bool found = fst.Lookup(q[i], &v);
      ASSERT_EQ(got_lr[i].found, found) << "key " << i;
      if (found) {
        ASSERT_EQ(got_lr[i].value, v) << "key " << i;
      }
    }
  }
}

TEST(BatchTest, FstConfigMatrix) {
  Dataset d = MakeDataset(/*seed=*/42, /*n=*/3000);
  std::vector<uint64_t> values(d.stored.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 3 + 1;

  FstConfig base;
  std::vector<FstConfig> configs;
  configs.push_back(base);  // defaults: auto dense cutoff
  FstConfig c = base;
  c.max_dense_levels = 1;  // dense-to-sparse handoff at the first level
  configs.push_back(c);
  c = base;
  c.max_dense_levels = 0;  // sparse-only
  configs.push_back(c);
  c = base;
  c.max_dense_levels = 64;  // force-dense
  configs.push_back(c);

  for (const FstConfig& cfg : configs) {
    Fst fst;
    fst.Build(d.stored, values, cfg);
    ExpectFstParity(fst, d.queries);
  }
}

TEST(BatchTest, FstTruncatedMode) {
  Dataset d = MakeDataset(/*seed=*/7, /*n=*/2000);
  std::vector<uint64_t> values(d.stored.size(), 0);
  FstConfig cfg;
  cfg.mode = FstConfig::Mode::kMinUniquePrefix;
  cfg.store_values = false;
  Fst fst;
  fst.Build(d.stored, values, cfg);
  ExpectFstParity(fst, d.queries);
}

TEST(BatchTest, EmptyTrieAndEmptyBatch) {
  Fst fst;
  std::string_view k = "abc";
  Fst::PathResult path;
  fst.LookupPathBatch(&k, 1, &path);
  EXPECT_FALSE(path.found);
  LookupResult lr;
  fst.LookupBatch(&k, 1, &lr);
  EXPECT_FALSE(lr.found);
  fst.LookupPathBatch(nullptr, 0, nullptr);  // n = 0 is a no-op
}

}  // namespace
}  // namespace met
