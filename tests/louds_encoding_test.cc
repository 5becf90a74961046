// Validates the LOUDS-DS encoding byte-for-byte against the worked example
// of Figure 3.2 in the thesis (keys: f, far, fas, fast, fat, s, top, toy,
// trie, trip, try).
#include <string>
#include <vector>

#include "fst/fst.h"
#include "gtest/gtest.h"

namespace met {
namespace {

std::vector<std::string> Figure32Keys() {
  std::vector<std::string> keys = {"f",   "far", "fas", "fast", "fat", "s",
                                   "top", "toy", "trie", "trip", "try"};
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::vector<uint64_t> Iota(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(LoudsEncodingTest, SparseSequencesMatchFigure32) {
  FstConfig cfg;
  cfg.max_dense_levels = 0;  // pure LOUDS-Sparse, as in the figure's lower half
  Fst fst;
  fst.Build(Figure32Keys(), Iota(11), cfg);

  // Level order:  f s t | $ a | o r | r s t | p y | i y | $ t | e p
  // ($ = the 0xFF prefix-key marker: "f" and "fas" are keys and prefixes).
  const std::string expected_labels =
      "fst\xFF"
      "aorrstpyiy\xFF"
      "tep";
  const Fst::SparseSequences flat = fst.FlattenSparse();
  const std::vector<uint8_t>& labels = flat.labels;
  ASSERT_EQ(labels.size(), expected_labels.size());
  for (size_t i = 0; i < labels.size(); ++i)
    EXPECT_EQ(labels[i], static_cast<uint8_t>(expected_labels[i])) << i;

  // S-HasChild: f s t -> 1 0 1 ; $ a -> 0 1 ; o r -> 1 1 ;
  //             r s t -> 0 1 0 ; p y -> 0 0 ; i y -> 1 0 ; $ t e p -> 0.
  const std::vector<int> expected_has_child = {1, 0, 1, 0, 1, 1, 1, 0, 1,
                                               0, 0, 0, 1, 0, 0, 0, 0, 0};
  // S-LOUDS: node boundaries.
  const std::vector<int> expected_louds = {1, 0, 0, 1, 0, 1, 0, 1, 0,
                                           0, 1, 0, 1, 0, 1, 0, 1, 0};
  const BitVector& has_child = flat.has_child;
  const BitVector& louds = flat.louds;
  ASSERT_EQ(has_child.size(), expected_has_child.size());
  for (size_t i = 0; i < expected_has_child.size(); ++i) {
    EXPECT_EQ(has_child.Get(i), expected_has_child[i] == 1) << "HasChild " << i;
    EXPECT_EQ(louds.Get(i), expected_louds[i] == 1) << "LOUDS " << i;
  }

  // Structural counts from the figure: 8 nodes across 4 levels.
  EXPECT_EQ(fst.height(), 4u);
  EXPECT_EQ(fst.num_nodes(), 8u);
  EXPECT_EQ(fst.num_leaves(), 11u);
}

TEST(LoudsEncodingTest, DenseBitmapsMatchFigure32UpperLevels) {
  FstConfig cfg;
  cfg.max_dense_levels = 1;  // encode the root densely, as in the figure
  Fst fst;
  fst.Build(Figure32Keys(), Iota(11), cfg);

  const BitVector& d_labels = fst.DenseLabelsForTest();
  ASSERT_EQ(d_labels.size(), 256u);  // one node bitmap
  // Root sets exactly f, s, t.
  for (int b = 0; b < 256; ++b)
    EXPECT_EQ(d_labels.Get(b), b == 'f' || b == 's' || b == 't') << b;
  // Root path (empty string) is not a stored key.
  EXPECT_FALSE(fst.DenseIsPrefixForTest().Get(0));

  // Queries behave identically to the sparse-only encoding.
  for (const auto& k : Figure32Keys()) EXPECT_TRUE(fst.Lookup(k)) << k;
  EXPECT_FALSE(fst.Lookup("fa"));
  EXPECT_FALSE(fst.Lookup("tri"));
}

TEST(LoudsEncodingTest, NavigationFormulas) {
  // Check the Section 3.3 navigation identities on the example trie:
  // child(pos) = select1(S-LOUDS, rank1(S-HasChild, pos) + 1).
  FstConfig cfg;
  cfg.max_dense_levels = 0;
  Fst fst;
  fst.Build(Figure32Keys(), Iota(11), cfg);
  // Position 0 is label 'f' (HasChild set); its child node is the node
  // starting at position 3 (the "$ a" node).
  // Position 2 is 't'; its child is the "o r" node at position 5.
  // We verify through public lookups that traversal lands where the figure
  // says: "fa..." descends through position 3's node.
  EXPECT_TRUE(fst.Lookup("far"));
  EXPECT_TRUE(fst.Lookup("fas"));
  EXPECT_TRUE(fst.Lookup("try"));
  // Iterator order equals sorted key order (level-order encoding, DFS walk).
  auto keys = Figure32Keys();
  size_t i = 0;
  for (auto it = fst.Begin(); it.Valid(); it.Next(), ++i)
    EXPECT_EQ(it.key(), keys[i]);
  EXPECT_EQ(i, keys.size());
}

}  // namespace
}  // namespace met
