// Mutation tests for the met::check validators: corrupt internal state via
// check::TestAccess (a friend of every structure) and assert Validate()
// detects it. Each structure gets at least two distinct corruption classes
// (ordering/encoding damage and counter/metadata damage), proving the
// validators are not vacuously green.
//
// Compiled with MET_CHECK=1 (tests/CMakeLists.txt), so Validate() is live.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "btree/compact_btree.h"
#include "btree/compressed_btree.h"
#include "check/btree_check.h"
#include "check/compact_btree_check.h"
#include "check/compressed_btree_check.h"
#include "check/hybrid_check.h"
#include "check/skiplist_check.h"
#include "check/test_access.h"
#include "fst/fst.h"
#include "hybrid/hybrid.h"
#include "lsm/lsm.h"
#include "masstree/masstree.h"
#include "skiplist/skiplist.h"
#include "surf/surf.h"

namespace met {
namespace {

using check::TestAccess;

std::vector<std::string> Keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06zu", i);
    keys.emplace_back(buf);
  }
  return keys;
}

/// Expects a clean baseline, then that `corrupt` makes Validate() fail with
/// a non-empty report. `index` is built fresh by the caller for each call
/// (the corrupted state must not leak into the next case).
template <typename T, typename Corrupt>
void ExpectDetected(T* index, Corrupt corrupt, const char* what) {
  std::ostringstream before;
  ASSERT_TRUE(index->Validate(before)) << "dirty baseline before '" << what
                                       << "':\n"
                                       << before.str();
  corrupt(index);
  std::ostringstream after;
  EXPECT_FALSE(index->Validate(after)) << "undetected corruption: " << what;
  EXPECT_FALSE(after.str().empty()) << "empty report for: " << what;
}

// --- B+tree --------------------------------------------------------------

void FillBTree(BTree<std::string>* t) {
  for (const std::string& k : Keys(500)) t->Insert(k, 1);
}

TEST(CheckMutation, BTreeLeafOrder) {
  BTree<std::string> t;
  FillBTree(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::SwapFirstLeafKeys(p); },
                 "swapped leaf keys");
}

TEST(CheckMutation, BTreeSizeCounter) {
  BTree<std::string> t;
  FillBTree(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::BumpSize(p); },
                 "size() off by one");
}

// --- Skip list -----------------------------------------------------------

void FillSkipList(SkipList<std::string>* t) {
  for (const std::string& k : Keys(400)) t->Insert(k, 1);
}

TEST(CheckMutation, SkipListTowerSeparator) {
  SkipList<std::string> t;
  FillSkipList(&t);
  ExpectDetected(
      &t,
      [](auto* p) { TestAccess::SetFirstTowerKey(p, std::string("~~~~")); },
      "first tower separator above its page");
}

TEST(CheckMutation, SkipListSizeCounter) {
  SkipList<std::string> t;
  FillSkipList(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::BumpSize(p); },
                 "size() off by one");
}

// --- ART -----------------------------------------------------------------

void FillArt(Art* t) {
  for (const std::string& k : Keys(300)) t->Insert(k, 7);
}

TEST(CheckMutation, ArtLeafPathByte) {
  Art t;
  FillArt(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::FlipArtLeafByte(p); },
                 "leaf key byte disagrees with its path");
}

TEST(CheckMutation, ArtSizeCounter) {
  Art t;
  FillArt(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::BumpSize(p); },
                 "size() off by one");
}

// --- Masstree ------------------------------------------------------------

void FillMasstree(Masstree* t) {
  // Long keys exercise multi-slice paths; the first 8 bytes vary so the
  // root layer holds many slices.
  for (const std::string& k : Keys(300)) t->Insert(k + "/long/suffix", 7);
}

TEST(CheckMutation, MasstreeRootSliceOrder) {
  Masstree t;
  FillMasstree(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::SwapMasstreeRootSlices(p); },
                 "swapped root keyslices");
}

TEST(CheckMutation, MasstreeSizeCounter) {
  Masstree t;
  FillMasstree(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::BumpSize(p); },
                 "size() off by one");
}

// --- Hybrid index --------------------------------------------------------

TEST(CheckMutation, HybridStaticTombstone) {
  HybridBTree<std::string> h;
  for (const std::string& k : Keys(300)) h.Insert(k, 1);
  h.Merge();
  ExpectDetected(&h, [](auto* p) { TestAccess::PlantStaticTombstone(p); },
                 "tombstone planted in the static stage");
}

TEST(CheckMutation, HybridSizeCounter) {
  HybridBTree<std::string> h;
  for (const std::string& k : Keys(300)) h.Insert(k, 1);
  h.Merge();
  ExpectDetected(&h, [](auto* p) { TestAccess::BumpSize(p); },
                 "size() off by one");
}

// --- Compact B+tree ------------------------------------------------------

void FillCompact(CompactBTree<std::string>* t) {
  std::vector<CompactBTree<std::string>::Entry> entries;
  for (const std::string& k : Keys(300)) entries.push_back({k, 1, false});
  t->Build(std::move(entries));
}

TEST(CheckMutation, CompactBTreeKeyOrder) {
  CompactBTree<std::string> t;
  FillCompact(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::CorruptCompactFirstKey(p); },
                 "first blob key byte overwritten");
}

TEST(CheckMutation, CompactBTreeOffsets) {
  CompactBTree<std::string> t;
  FillCompact(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::CorruptCompactOffsets(p); },
                 "offset table past blob end");
}

// --- Compressed B+tree ---------------------------------------------------

void FillCompressed(CompressedBTree<std::string>* t) {
  std::vector<CompressedBTree<std::string>::Entry> entries;
  for (const std::string& k : Keys(500)) entries.push_back({k, 1, false});
  t->Build(std::move(entries));
}

TEST(CheckMutation, CompressedBTreeBlob) {
  CompressedBTree<std::string> t;
  FillCompressed(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::CorruptCompressedBlob(p); },
                 "damaged deflate stream");
}

TEST(CheckMutation, CompressedBTreeDirectory) {
  CompressedBTree<std::string> t;
  FillCompressed(&t);
  ExpectDetected(&t,
                 [](auto* p) { TestAccess::CorruptCompressedDirectory(p); },
                 "directory key != page first entry");
}

TEST(CheckMutation, CompressedBTreeSizeCounter) {
  CompressedBTree<std::string> t;
  FillCompressed(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::BumpSize(p); },
                 "size() off by one");
}

// --- FST -----------------------------------------------------------------

void FillFst(Fst* t, const FstConfig& config) {
  std::vector<std::string> keys = Keys(1000);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  t->Build(keys, values, config);
}

TEST(CheckMutation, FstValueColumn) {
  Fst t;
  FillFst(&t, FstConfig{});
  ExpectDetected(&t, [](auto* p) { TestAccess::DropFstValue(p); },
                 "value column shorter than leaf count");
}

TEST(CheckMutation, FstHasChildBit) {
  FstConfig sparse_only;
  sparse_only.max_dense_levels = 0;  // guarantee sparse levels exist
  Fst t;
  FillFst(&t, sparse_only);
  ExpectDetected(&t,
                 [](auto* p) {
                   ASSERT_TRUE(TestAccess::FlipFstHasChildBit(p));
                 },
                 "flipped S-HasChild bit");
}

TEST(CheckMutation, FstBlockRank) {
  FstConfig sparse_only;
  sparse_only.max_dense_levels = 0;
  Fst t;
  FillFst(&t, sparse_only);
  ExpectDetected(&t,
                 [](auto* p) {
                   ASSERT_TRUE(TestAccess::CorruptFstBlockRank(p));
                 },
                 "inline block rank off by one");
}

TEST(CheckMutation, FstBlockChildPointer) {
  Fst t;
  FillFst(&t, FstConfig{});  // dense levels above, block pointers below
  ExpectDetected(&t,
                 [](auto* p) {
                   ASSERT_TRUE(TestAccess::CorruptFstChildPointer(p));
                 },
                 "block child pointer off its node start");
}

// --- SuRF ----------------------------------------------------------------

void FillSurf(Surf* t) { t->Build(Keys(800), SurfConfig::Real(8)); }

TEST(CheckMutation, SurfSuffixArray) {
  Surf t;
  FillSurf(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::DropSurfSuffixWord(p); },
                 "suffix array shorter than leaf count");
}

TEST(CheckMutation, SurfDepthStatistic) {
  Surf t;
  FillSurf(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::CorruptSurfDepth(p); },
                 "negative average leaf depth");
}

// --- LSM -----------------------------------------------------------------

LsmOptions MutationLsmOptions(const char* tag) {
  LsmOptions opt;
  opt.dir = std::string("/tmp/met_mutation_lsm_") + tag;
  opt.memtable_bytes = 8 << 10;
  opt.block_bytes = 1024;
  opt.sstable_target_bytes = 16 << 10;
  opt.level1_bytes = 64 << 10;
  return opt;
}

void FillLsm(LsmTree* t) {
  for (const std::string& k : Keys(2000)) ASSERT_TRUE(t->Put(k, "value-" + k).ok());
  ASSERT_TRUE(t->Finish().ok());
}

TEST(CheckMutation, LsmFenceOffsets) {
  LsmTree t(MutationLsmOptions("fence"));
  FillLsm(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::CorruptLsmFence(p); },
                 "fence offsets no longer cover the file");
}

TEST(CheckMutation, LsmEntryCount) {
  LsmTree t(MutationLsmOptions("count"));
  FillLsm(&t);
  ExpectDetected(&t, [](auto* p) { TestAccess::ZeroLsmEntryCount(p); },
                 "table entry count zeroed");
}

TEST(CheckMutation, LsmCacheIndexEntry) {
  LsmTree t(MutationLsmOptions("cache"));
  FillLsm(&t);
  for (const std::string& k : Keys(2000)) ASSERT_TRUE(t.Lookup(k));
  ExpectDetected(&t, [](auto* p) { TestAccess::DropLsmCacheIndexEntry(p); },
                 "cached block unreachable through the hash index");
}

}  // namespace
}  // namespace met
