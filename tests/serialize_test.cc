// Round-trip tests for the FST / SuRF binary serialization, and loading of
// images written by the earlier three-array LOUDS-Sparse code (tests/data).
#include <fstream>
#include <sstream>
#include <string>

#include "common/random.h"
#include "fst/fst.h"
#include "keys/keygen.h"
#include "surf/surf.h"
#include "gtest/gtest.h"

namespace met {
namespace {

TEST(SerializeTest, FstRoundTrip) {
  auto keys = GenEmails(20000);
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 3;

  Fst original;
  original.Build(keys, values);
  std::string blob;
  original.Serialize(&blob);

  Fst restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  EXPECT_EQ(restored.num_keys(), original.num_keys());
  EXPECT_EQ(restored.height(), original.height());
  EXPECT_EQ(restored.dense_levels(), original.dense_levels());

  Random rng(3);
  for (int t = 0; t < 2000; ++t) {
    const std::string& k = keys[rng.Uniform(keys.size())];
    uint64_t v1 = 1, v2 = 2;
    ASSERT_EQ(original.Lookup(k, &v1), restored.Lookup(k, &v2));
    EXPECT_EQ(v1, v2);
  }
  // Iterators agree end to end.
  auto it1 = original.Begin();
  auto it2 = restored.Begin();
  while (it1.Valid()) {
    ASSERT_TRUE(it2.Valid());
    EXPECT_EQ(it1.key(), it2.key());
    EXPECT_EQ(it1.value(), it2.value());
    it1.Next();
    it2.Next();
  }
  EXPECT_FALSE(it2.Valid());
  // Counts agree.
  EXPECT_EQ(original.CountRange(keys[10], keys[5000]),
            restored.CountRange(keys[10], keys[5000]));
}

TEST(SerializeTest, SurfRoundTrip) {
  auto keys = GenEmails(20000);
  SortUnique(&keys);
  Surf original;
  original.Build(keys, SurfConfig::Mixed(4, 4));
  std::string blob;
  original.Serialize(&blob);

  Surf restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  EXPECT_EQ(restored.num_keys(), original.num_keys());
  EXPECT_NEAR(restored.AvgLeafDepth(), original.AvgLeafDepth(), 0.01);

  for (const auto& k : keys) ASSERT_TRUE(restored.MayContain(k));
  Random rng(7);
  for (int t = 0; t < 3000; ++t) {
    std::string probe = keys[rng.Uniform(keys.size())] + "x";
    EXPECT_EQ(original.MayContain(probe), restored.MayContain(probe));
    std::string hi = probe + "zz";
    EXPECT_EQ(original.MayContainRange(probe, hi),
              restored.MayContainRange(probe, hi));
  }
}

TEST(SerializeTest, RejectsGarbage) {
  Fst fst;
  EXPECT_FALSE(fst.Deserialize("not a trie"));
  EXPECT_FALSE(fst.Deserialize(""));
  Surf surf;
  EXPECT_FALSE(surf.Deserialize("junk"));

  // Truncated image fails cleanly.
  auto keys = GenEmails(1000);
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size(), 1);
  Fst good;
  good.Build(keys, values);
  std::string blob;
  good.Serialize(&blob);
  EXPECT_FALSE(fst.Deserialize(std::string_view(blob).substr(0, blob.size() / 2)));
}

TEST(SerializeTest, SparseOnlyAndEmpty) {
  FstConfig cfg;
  cfg.max_dense_levels = 0;
  auto keys = GenEmails(5000);
  SortUnique(&keys);
  std::vector<uint64_t> values(keys.size(), 7);
  Fst original;
  original.Build(keys, values, cfg);
  std::string blob;
  original.Serialize(&blob);
  Fst restored;
  ASSERT_TRUE(restored.Deserialize(blob));
  uint64_t v = 0;
  EXPECT_TRUE(restored.Lookup(keys[123], &v));
  EXPECT_EQ(v, 7u);

  Fst empty;
  empty.Build({}, {});
  blob.clear();
  empty.Serialize(&blob);
  Fst empty2;
  ASSERT_TRUE(empty2.Deserialize(blob));
  EXPECT_FALSE(empty2.Lookup("x"));
}

// ---- Images serialized before the block layout ----
//
// tests/data/{fst,surf}_v1.img were written by the three-array LOUDS-Sparse
// code (700 keys: decimal "k<n>" strings with prefix relations, and 4-byte
// binary keys; the FST with one dense level, the SuRF Mixed(4, 4)). Each
// line of the matching .expected file is a query and the answers that code
// gave, keys in hex ("-" for the empty key, "end" for no result).

std::string ReadFile(const std::string& name) {
  std::ifstream in(std::string(MET_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string Hex(std::string_view s) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out.empty() ? "-" : out;
}

std::string Unhex(const std::string& h) {
  std::string out;
  if (h == "-") return out;
  for (size_t i = 0; i + 1 < h.size(); i += 2)
    out += static_cast<char>(std::stoi(h.substr(i, 2), nullptr, 16));
  return out;
}

TEST(SerializeTest, LoadsPreBlockFstImage) {
  const std::string image = ReadFile("fst_v1.img");
  ASSERT_FALSE(image.empty());
  Fst fst;
  ASSERT_TRUE(fst.Deserialize(image));
  EXPECT_EQ(fst.num_keys(), 700u);
  EXPECT_EQ(fst.dense_levels(), 1u);

  std::istringstream expected(ReadFile("fst_v1.expected"));
  std::string q, lb, hi;
  int found;
  uint64_t value, count;
  size_t lines = 0;
  while (expected >> q >> found >> value >> lb >> count >> hi) {
    const std::string key = Unhex(q);
    uint64_t v = 0;
    ASSERT_EQ(fst.Lookup(key, &v), found == 1) << q;
    if (found == 1) {
      ASSERT_EQ(v, value) << q;
    }
    Fst::Iterator it = fst.LowerBound(key);
    ASSERT_EQ(it.Valid() ? Hex(it.key()) : "end", lb) << q;
    ASSERT_EQ(fst.CountRange(key, Unhex(hi)), count) << q << " " << hi;
    ++lines;
  }
  EXPECT_EQ(lines, 414u);

  // The format is unchanged: re-serializing reproduces the image.
  std::string again;
  fst.Serialize(&again);
  EXPECT_EQ(again, image);
}

TEST(SerializeTest, LoadsPreBlockSurfImage) {
  const std::string image = ReadFile("surf_v1.img");
  ASSERT_FALSE(image.empty());
  Surf surf;
  ASSERT_TRUE(surf.Deserialize(image));
  EXPECT_EQ(surf.num_keys(), 700u);

  std::istringstream expected(ReadFile("surf_v1.expected"));
  std::string q, next, hi;
  int may, fp;
  uint64_t count;
  size_t lines = 0;
  while (expected >> q >> may >> next >> fp >> count >> hi) {
    const std::string key = Unhex(q);
    ASSERT_EQ(surf.MayContain(key), may == 1) << q;
    Surf::SeekResult r = surf.MoveToNext(key);
    ASSERT_EQ(r.found ? Hex(r.key) : "end", next) << q;
    ASSERT_EQ(r.fp_flag, fp == 1) << q;
    ASSERT_EQ(surf.Count(key, Unhex(hi)), count) << q << " " << hi;
    ++lines;
  }
  EXPECT_EQ(lines, 414u);

  std::string again;
  surf.Serialize(&again);
  EXPECT_EQ(again, image);
}

}  // namespace
}  // namespace met
