// In-memory B+tree in the style of the STX B+tree (the thesis's dynamic
// baseline; Section 2.1). Node byte budget defaults to 512, the size the
// thesis found best for in-memory operation.
//
// Deletions remove entries from leaves without rebalancing (lazy deletion),
// which is sufficient for the hybrid-index dynamic stage where the structure
// is periodically drained by merges.
#ifndef MET_BTREE_BTREE_H_
#define MET_BTREE_BTREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/fwd.h"
#include "common/assert.h"
#include "prof/memory_breakdown.h"

namespace met {

namespace btree_internal {

template <typename K>
inline size_t KeyHeapBytes(const K&) {
  return 0;
}

inline size_t KeyHeapBytes(const std::string& s) {
  // std::string SSO threshold on libstdc++ is 15 chars.
  return s.capacity() > 15 ? s.capacity() + 1 : 0;
}

}  // namespace btree_internal

template <typename Key, typename Value = uint64_t, int NodeBytes = 512>
class BTree {
 private:
  static constexpr int ComputeLeafSlots() {
    int s = static_cast<int>((NodeBytes - 32) / (sizeof(Key) + sizeof(Value)));
    return s < 4 ? 4 : s;
  }
  static constexpr int ComputeInnerSlots() {
    int s = static_cast<int>((NodeBytes - 32) / (sizeof(Key) + sizeof(void*)));
    return s < 4 ? 4 : s;
  }

  struct Node;
  struct LeafNode;
  struct InnerNode;

 public:
  static constexpr int kLeafSlots = ComputeLeafSlots();
  static constexpr int kInnerSlots = ComputeInnerSlots();

  BTree() = default;
  ~BTree() { Destroy(); }

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts (key, value). If the key already exists, returns false and does
  /// not modify the tree.
  bool Insert(const Key& key, const Value& value) {
    return InsertImpl(key, value, /*overwrite=*/false);
  }

  /// Inserts or overwrites.
  void InsertOrAssign(const Key& key, const Value& value) {
    InsertImpl(key, value, /*overwrite=*/true);
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    const LeafNode* leaf;
    int slot;
    if (!FindLeafSlot(key, &leaf, &slot)) return false;
    if (value != nullptr) *value = leaf->values[slot];
    return true;
  }

  /// Overwrites the value of an existing key; returns false if absent.
  bool Update(const Key& key, const Value& value) {
    const LeafNode* cleaf;
    int slot;
    if (!FindLeafSlot(key, &cleaf, &slot)) return false;
    const_cast<LeafNode*>(cleaf)->values[slot] = value;
    return true;
  }

  /// Removes a key (lazy: no rebalancing). Returns false if absent.
  bool Erase(const Key& key) {
    const LeafNode* cleaf;
    int slot;
    if (!FindLeafSlot(key, &cleaf, &slot)) return false;
    LeafNode* leaf = const_cast<LeafNode*>(cleaf);
    for (int i = slot; i + 1 < leaf->count; ++i) {
      leaf->keys[i] = leaf->keys[i + 1];
      leaf->values[i] = leaf->values[i + 1];
    }
    --leaf->count;
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Iterator over leaf entries in key order.
  class Iterator {
   public:
    Iterator() = default;
    Iterator(const LeafNode* leaf, int slot) : leaf_(leaf), slot_(slot) {}

    bool Valid() const { return leaf_ != nullptr && slot_ < leaf_->count; }
    const Key& key() const { return leaf_->keys[slot_]; }
    const Value& value() const { return leaf_->values[slot_]; }

    void Next() {
      if (!Valid()) return;
      ++slot_;
      if (slot_ >= leaf_->count) {
        leaf_ = leaf_->next;
        slot_ = 0;
      }
    }

   private:
    const LeafNode* leaf_ = nullptr;
    int slot_ = 0;
  };

  Iterator Begin() const {
    return Iterator(first_leaf_, 0);
  }

  /// Iterator at the first entry with key >= `key`.
  Iterator LowerBound(const Key& key) const {
    if (root_ == nullptr) return Iterator();
    const Node* n = root_;
    while (!n->is_leaf) {
      const InnerNode* inner = static_cast<const InnerNode*>(n);
      int slot = FindUpper(inner->keys, inner->count, key);
      n = inner->children[slot];
    }
    const LeafNode* leaf = static_cast<const LeafNode*>(n);
    int slot = FindLower(leaf->keys, leaf->count, key);
    Iterator it(leaf, slot);
    if (slot >= leaf->count) it = Iterator(leaf->next, 0);
    return it;
  }

  /// Scans up to `n` entries starting at the first key >= `key`.
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    size_t cnt = 0;
    for (Iterator it = LowerBound(key); it.Valid() && cnt < n; it.Next(), ++cnt)
      if (out != nullptr) out->push_back(it.value());
    return cnt;
  }

  /// Total memory (nodes + string heap), computed by walking the tree.
  size_t MemoryBytes() const {
    size_t bytes = 0;
    WalkMemory(root_, &bytes);
    return bytes;
  }

  /// Component attribution; TotalBytes() == MemoryBytes() (same walk).
  MemoryBreakdown Breakdown() const {
    size_t leaf_bytes = 0, inner_bytes = 0, key_heap = 0;
    WalkBreakdown(root_, &leaf_bytes, &inner_bytes, &key_heap);
    MemoryBreakdown b("btree");
    b.Add("leaf_nodes", leaf_bytes);
    b.Add("inner_nodes", inner_bytes);
    b.Add("key_heap", key_heap);
    return b;
  }

  void Clear() {
    Destroy();
    root_ = nullptr;
    first_leaf_ = nullptr;
    size_ = 0;
  }

  /// Walks the whole tree verifying its structural invariants (node key
  /// ordering, separator bounds, leaf-chain linkage, slot counts, size).
  /// Writes one line per violation to `os`; returns true if consistent.
  /// Compiles to a no-op unless MET_CHECK_ENABLED (Debug or -DMET_CHECK=1);
  /// callers with checks enabled must include check/btree_check.h.
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

  /// Average leaf occupancy in [0,1] (Section 2.2 reports ~69% for B+trees).
  double LeafOccupancy() const {
    size_t slots = 0, used = 0;
    for (const LeafNode* l = first_leaf_; l != nullptr; l = l->next) {
      slots += kLeafSlots;
      used += l->count;
    }
    return slots == 0 ? 0.0 : static_cast<double>(used) / slots;
  }

 private:
  struct Node {
    bool is_leaf;
    int16_t count;
  };

  struct LeafNode : Node {
    LeafNode* next = nullptr;
    Key keys[kLeafSlots];
    Value values[kLeafSlots];
  };

  struct InnerNode : Node {
    Key keys[kInnerSlots];
    Node* children[kInnerSlots + 1];
  };

  // First index i with keys[i] >= key.
  static int FindLower(const Key* keys, int count, const Key& key) {
    return static_cast<int>(std::lower_bound(keys, keys + count, key) - keys);
  }

  // First index i with keys[i] > key.
  static int FindUpper(const Key* keys, int count, const Key& key) {
    return static_cast<int>(std::upper_bound(keys, keys + count, key) - keys);
  }

  bool FindLeafSlot(const Key& key, const LeafNode** leaf_out, int* slot_out) const {
    if (root_ == nullptr) return false;
    const Node* n = root_;
    while (!n->is_leaf) {
      const InnerNode* inner = static_cast<const InnerNode*>(n);
      int slot = FindUpper(inner->keys, inner->count, key);
      n = inner->children[slot];
    }
    const LeafNode* leaf = static_cast<const LeafNode*>(n);
    int slot = FindLower(leaf->keys, leaf->count, key);
    if (slot >= leaf->count || leaf->keys[slot] != key) return false;
    *leaf_out = leaf;
    *slot_out = slot;
    return true;
  }

  bool InsertImpl(const Key& key, const Value& value, bool overwrite) {
    if (root_ == nullptr) {
      LeafNode* leaf = new LeafNode();
      leaf->is_leaf = true;
      leaf->count = 0;
      root_ = leaf;
      first_leaf_ = leaf;
    }
    Key split_key;
    Node* split_node = nullptr;
    bool inserted = InsertRecurse(root_, key, value, overwrite, &split_key, &split_node);
    if (split_node != nullptr) {
      InnerNode* new_root = new InnerNode();
      new_root->is_leaf = false;
      new_root->count = 1;
      new_root->keys[0] = split_key;
      new_root->children[0] = root_;
      new_root->children[1] = split_node;
      root_ = new_root;
    }
    if (inserted) ++size_;
    return inserted;
  }

  bool InsertRecurse(Node* n, const Key& key, const Value& value, bool overwrite,
                     Key* split_key, Node** split_node) {
    *split_node = nullptr;
    if (n->is_leaf) {
      LeafNode* leaf = static_cast<LeafNode*>(n);
      int slot = FindLower(leaf->keys, leaf->count, key);
      if (slot < leaf->count && leaf->keys[slot] == key) {
        if (overwrite) leaf->values[slot] = value;
        return false;
      }
      if (leaf->count == kLeafSlots) {
        // Split the leaf, then insert into the proper half.
        LeafNode* right = new LeafNode();
        right->is_leaf = true;
        int mid = kLeafSlots / 2;
        right->count = static_cast<int16_t>(kLeafSlots - mid);
        for (int i = 0; i < right->count; ++i) {
          right->keys[i] = std::move(leaf->keys[mid + i]);
          right->values[i] = leaf->values[mid + i];
        }
        leaf->count = static_cast<int16_t>(mid);
        right->next = leaf->next;
        leaf->next = right;
        *split_key = right->keys[0];
        *split_node = right;
        LeafNode* target = (key < *split_key) ? leaf : right;
        int s = FindLower(target->keys, target->count, key);
        InsertAt(target, s, key, value);
        return true;
      }
      InsertAt(leaf, slot, key, value);
      return true;
    }

    InnerNode* inner = static_cast<InnerNode*>(n);
    int slot = FindUpper(inner->keys, inner->count, key);
    Key child_split_key;
    Node* child_split = nullptr;
    bool inserted = InsertRecurse(inner->children[slot], key, value, overwrite,
                                  &child_split_key, &child_split);
    if (child_split != nullptr) {
      if (inner->count == kInnerSlots) {
        // Split this inner node. Middle key moves up.
        InnerNode* right = new InnerNode();
        right->is_leaf = false;
        int mid = kInnerSlots / 2;
        Key up_key = inner->keys[mid];
        right->count = static_cast<int16_t>(kInnerSlots - mid - 1);
        for (int i = 0; i < right->count; ++i)
          right->keys[i] = std::move(inner->keys[mid + 1 + i]);
        for (int i = 0; i <= right->count; ++i)
          right->children[i] = inner->children[mid + 1 + i];
        inner->count = static_cast<int16_t>(mid);
        // Now insert (child_split_key, child_split) into the proper half.
        if (child_split_key < up_key) {
          InsertInner(inner, child_split_key, child_split);
        } else {
          InsertInner(right, child_split_key, child_split);
        }
        *split_key = up_key;
        *split_node = right;
      } else {
        InsertInner(inner, child_split_key, child_split);
      }
    }
    return inserted;
  }

  static void InsertAt(LeafNode* leaf, int slot, const Key& key, const Value& value) {
    for (int i = leaf->count; i > slot; --i) {
      leaf->keys[i] = std::move(leaf->keys[i - 1]);
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[slot] = key;
    leaf->values[slot] = value;
    ++leaf->count;
  }

  static void InsertInner(InnerNode* inner, const Key& key, Node* child) {
    int slot = FindUpper(inner->keys, inner->count, key);
    for (int i = inner->count; i > slot; --i) {
      inner->keys[i] = std::move(inner->keys[i - 1]);
      inner->children[i + 1] = inner->children[i];
    }
    inner->keys[slot] = key;
    inner->children[slot + 1] = child;
    ++inner->count;
  }

  void WalkMemory(const Node* n, size_t* bytes) const {
    if (n == nullptr) return;
    if (n->is_leaf) {
      const LeafNode* leaf = static_cast<const LeafNode*>(n);
      *bytes += sizeof(LeafNode);
      for (int i = 0; i < leaf->count; ++i)
        *bytes += btree_internal::KeyHeapBytes(leaf->keys[i]);
    } else {
      const InnerNode* inner = static_cast<const InnerNode*>(n);
      *bytes += sizeof(InnerNode);
      for (int i = 0; i < inner->count; ++i)
        *bytes += btree_internal::KeyHeapBytes(inner->keys[i]);
      for (int i = 0; i <= inner->count; ++i) WalkMemory(inner->children[i], bytes);
    }
  }

  void WalkBreakdown(const Node* n, size_t* leaf_bytes, size_t* inner_bytes,
                     size_t* key_heap) const {
    if (n == nullptr) return;
    if (n->is_leaf) {
      const LeafNode* leaf = static_cast<const LeafNode*>(n);
      *leaf_bytes += sizeof(LeafNode);
      for (int i = 0; i < leaf->count; ++i)
        *key_heap += btree_internal::KeyHeapBytes(leaf->keys[i]);
    } else {
      const InnerNode* inner = static_cast<const InnerNode*>(n);
      *inner_bytes += sizeof(InnerNode);
      for (int i = 0; i < inner->count; ++i)
        *key_heap += btree_internal::KeyHeapBytes(inner->keys[i]);
      for (int i = 0; i <= inner->count; ++i)
        WalkBreakdown(inner->children[i], leaf_bytes, inner_bytes, key_heap);
    }
  }

  void Destroy() { DestroyRecurse(root_); }

  void DestroyRecurse(Node* n) {
    if (n == nullptr) return;
    if (n->is_leaf) {
      delete static_cast<LeafNode*>(n);
    } else {
      InnerNode* inner = static_cast<InnerNode*>(n);
      for (int i = 0; i <= inner->count; ++i) DestroyRecurse(inner->children[i]);
      delete inner;
    }
  }

  bool ValidateImpl(std::ostream& os) const;  // check/btree_check.h
  friend struct check::TestAccess;

  Node* root_ = nullptr;
  LeafNode* first_leaf_ = nullptr;
  size_t size_ = 0;
};

}  // namespace met

#endif  // MET_BTREE_BTREE_H_
