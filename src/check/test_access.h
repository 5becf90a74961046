// Corruption injectors for the validator mutation tests
// (tests/check_mutation_test.cc). TestAccess is a friend of every structure
// (declared via check/fwd.h), so these helpers can damage internal state in
// targeted ways; the tests then assert that Validate() reports the damage.
//
// Everything is a template over the structure type, so this header needs no
// structure includes — the test TU includes the structures it corrupts.
//
// The injected states are unsafe to *operate on* (lookups may return wrong
// results); tests only call Validate() afterwards, plus the destructor, and
// every injector keeps destructors safe (no dangling pointers, no freed
// memory — only counters, orderings, and encodings are damaged).
//
// A few read-only inspectors of private state (the LSM block cache) sit
// alongside the injectors for tests that assert on it directly.
#ifndef MET_CHECK_TEST_ACCESS_H_
#define MET_CHECK_TEST_ACCESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace met {
namespace check {

struct TestAccess {
  // --- shared: any structure carrying a size_ member -------------------
  template <typename T>
  static void BumpSize(T* t) {
    ++t->size_;
  }

  // --- BTree -----------------------------------------------------------
  /// Swaps the first two keys of the first leaf (requires count >= 2).
  template <typename BT>
  static void SwapFirstLeafKeys(BT* t) {
    auto* leaf = t->first_leaf_;
    std::swap(leaf->keys[0], leaf->keys[1]);
  }

  // --- SkipList --------------------------------------------------------
  /// Swaps the first two keys of the first page (requires count >= 2).
  template <typename SL>
  static void SwapFirstPageKeys(SL* t) {
    auto* page = t->head_->page;
    std::swap(page->keys[0], page->keys[1]);
  }

  /// Replaces the first real tower's separator key with `key`. Passing a
  /// key above the tower's page contents breaks both the tower-key ordering
  /// and the separator-bound invariants.
  template <typename SL, typename K>
  static void SetFirstTowerKey(SL* t, const K& key) {
    t->head_->next[0]->key = key;
  }

  // --- ART -------------------------------------------------------------
  /// Flips the first byte of some reachable leaf's stored key so it no
  /// longer agrees with the path (branch label or compressed prefix) that
  /// leads to it.
  template <typename ArtT>
  static void FlipArtLeafByte(ArtT* t) {
    auto* leaf = const_cast<typename ArtT::Leaf*>(ArtT::AnyLeaf(t->root_));
    leaf->key_data[0] = static_cast<char>(leaf->key_data[0] ^ 0x01);
  }

  // --- Masstree --------------------------------------------------------
  /// Swaps the first two keyslices in the root layer's B+tree leaf
  /// (requires >= 2 entries in that leaf). Detected via the nested
  /// per-layer B+tree validation and the global key-order walk.
  template <typename MT>
  static void SwapMasstreeRootSlices(MT* t) {
    auto* leaf = t->root_->tree.first_leaf_;
    std::swap(leaf->keys[0], leaf->keys[1]);
  }

  // --- CompactBTree (string keys / BlobStore) --------------------------
  /// Overwrites the first key byte in the blob with 0xFF, breaking the
  /// sorted-unique leaf order (requires >= 2 ASCII keys).
  template <typename CT>
  static void CorruptCompactFirstKey(CT* t) {
    t->store_.blob_[0] = '\xff';
  }

  /// Grows the final key offset past the blob end.
  template <typename CT>
  static void CorruptCompactOffsets(CT* t) {
    ++t->store_.offsets_.back();
  }

  // --- CompressedBTree -------------------------------------------------
  /// Damages one byte in the middle of the first page's deflate stream.
  template <typename ZT>
  static void CorruptCompressedBlob(ZT* t) {
    auto& blob = t->pages_[0].blob;
    blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] + 1);
  }

  /// Points the first directory key at a key that is not the page's first
  /// entry.
  template <typename ZT>
  static void CorruptCompressedDirectory(ZT* t) {
    t->first_keys_[0] += "\x7f";
  }

  // --- HybridIndex -----------------------------------------------------
  /// Rebuilds the static stage with its first entry's value replaced by the
  /// tombstone sentinel (requires a non-empty static stage).
  template <typename H>
  static void PlantStaticTombstone(H* h) {
    auto fresh =
        std::make_shared<std::remove_cvref_t<decltype(*h->static_)>>();
    bool first = true;
    fresh->BuildFrom(h->static_->size(), [&](auto&& emit) {
      h->static_->VisitAll([&](const auto& k, uint64_t v) {
        emit(k, first ? H::kTombstone : v);
        first = false;
      });
    });
    h->static_ = std::move(fresh);
  }

  /// Runs every later background drain's body through `spawn` instead of a
  /// new std::thread (the model checker hands it to a virtual thread).
  template <typename H>
  static void SetDrainSpawner(H* h,
                              std::function<void(std::function<void()>)> spawn) {
    h->spawn_drain_for_test_ = std::move(spawn);
  }

  /// Forgets a background merge whose drain will never finish (its virtual
  /// thread was unwound by an aborted model-check run), so the index can be
  /// destroyed without waiting for it.
  template <typename H>
  static void AbandonMerge(H* h) {
    h->handoff_.reset();
    h->frozen_.reset();
  }

  /// A drain body for the merge in flight with a seeded handoff bug: it
  /// flags the drain done before storing its result, so the owner can adopt
  /// a missing static stage.
  template <typename H>
  static std::function<void()> DrainDoneBeforeResult(H* h) {
    return [hand = h->handoff_, frozen = h->frozen_, base = h->static_] {
      auto drained = H::Drain(*frozen, *base, {});
      hand->done.store(true);
      hand->Publish(std::move(drained));
      hand->AwaitAdoption();
    };
  }

  // --- FST -------------------------------------------------------------
  /// Drops the last value slot (value column no longer matches leaves).
  template <typename F>
  static void DropFstValue(F* t) {
    t->values_.pop_back();
  }

  /// Flips the first S-HasChild bit without rebuilding the block ranks,
  /// breaking the child bijection and the rank cross-checks. Returns false
  /// if the trie has no sparse levels to corrupt.
  template <typename F>
  static bool FlipFstHasChildBit(F* t) {
    if (t->num_s_labels_ == 0) return false;
    t->blocks_[0].has_child_lo ^= 1;
    return true;
  }

  /// Bumps the inline S-HasChild rank of the last sparse block. Returns
  /// false if the trie has no sparse levels.
  template <typename F>
  static bool CorruptFstBlockRank(F* t) {
    if (t->num_s_labels_ == 0) return false;
    ++t->blocks_.back().rank;
    return true;
  }

  /// Moves the child pointer of the first sparse block one label forward,
  /// off the node start it must name. Returns false if the trie has no
  /// sparse levels.
  template <typename F>
  static bool CorruptFstChildPointer(F* t) {
    if (t->num_s_labels_ == 0) return false;
    ++t->blocks_[0].child_pos;
    return true;
  }

  // --- SuRF ------------------------------------------------------------
  /// Drops the last packed suffix word (requires suffix bits configured).
  template <typename S>
  static void DropSurfSuffixWord(S* t) {
    t->suffix_words_.pop_back();
  }

  /// Pushes the depth statistic outside [0, height].
  template <typename S>
  static void CorruptSurfDepth(S* t) {
    t->avg_leaf_depth_ = -1.0;
  }

  // --- LSM -------------------------------------------------------------
  /// Shifts the first table's first block offset (fence index no longer
  /// starts at 0 / covers the file). Requires at least one flushed table.
  template <typename L>
  static void CorruptLsmFence(L* t) {
    FirstTable(t)->block_offset[0] += 1;
  }

  /// Zeroes the first table's entry count.
  template <typename L>
  static void ZeroLsmEntryCount(L* t) {
    FirstTable(t)->num_entries = 0;
  }

  /// Empties the first occupied entry of the block cache's hash index, so
  /// its slot is cached but unreachable. Requires a non-empty cache.
  template <typename L>
  static void DropLsmCacheIndexEntry(L* t) {
    for (auto& s : t->cache_index_) {
      if (s != L::kNoSlot) {
        s = L::kNoSlot;
        return;
      }
    }
  }

  /// Table id of every block in the block cache, one per occupied slot.
  template <typename L>
  static std::vector<uint64_t> LsmCachedTableIds(const L& t) {
    std::vector<uint64_t> ids;
    for (const auto& slot : t.cache_)
      if (slot.table_id != L::kNoTable) ids.push_back(slot.table_id);
    return ids;
  }

  /// Ids of the tables in the tree's levels.
  template <typename L>
  static std::vector<uint64_t> LsmLiveTableIds(const L& t) {
    std::vector<uint64_t> ids;
    for (const auto& level : t.levels_)
      for (const auto& table : level) ids.push_back(table->id);
    return ids;
  }

 private:
  template <typename L>
  static auto* FirstTable(L* t) {
    for (auto& level : t->levels_)
      if (!level.empty()) return level.front().get();
    return static_cast<decltype(t->levels_.front().front().get())>(nullptr);
  }
};

}  // namespace check
}  // namespace met

#endif  // MET_CHECK_TEST_ACCESS_H_
