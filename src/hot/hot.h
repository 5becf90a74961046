// Height-Optimized Trie (Binna et al., SIGMOD'18) — static variant for the
// Figure 6.19 integration experiment.
//
// HOT collapses a binary patricia trie into nodes of fanout up to
// kMaxFanout (32): each node stores the set of discriminative bit positions
// of the patricia subtrees it absorbs and, per entry, the "partial key"
// formed by extracting those bits. Lookups extract the same bits from the
// search key, binary-search the partial keys, and descend; a final full-key
// compare at the leaf makes lookups exact (patricia skips non-discriminative
// bits). Keys store only what ART would store in leaves, so HOT's key
// storage "completeness" sits between ART and the B+tree on the Figure 6.7
// spectrum.
//
// This implementation is built statically from sorted keys with greedy
// top-down packing (split each patricia subtree into at most kMaxFanout
// frontier subtrees per node), which yields height within one of the
// optimum. The dynamic insertion algorithms of the original are out of
// scope (the Chapter 6 evaluation only needs lookups over a bulk-loaded
// tree).
#ifndef MET_HOT_HOT_H_
#define MET_HOT_HOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "prof/memory_breakdown.h"

namespace met {

class Hot {
 public:
  using Value = uint64_t;
  static constexpr size_t kMaxFanout = 32;

  Hot() = default;
  ~Hot() { DestroyNode(root_); }

  Hot(const Hot&) = delete;
  Hot& operator=(const Hot&) = delete;

  /// Builds from sorted, unique keys with parallel values.
  void Build(const std::vector<std::string>& keys,
             const std::vector<Value>& values);

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(std::string_view key, Value* value = nullptr) const;

  size_t size() const { return size_; }
  size_t MemoryBytes() const { return allocated_bytes_; }
  /// Maximum number of HOT nodes on a root-to-leaf path.
  size_t Height() const;

  /// Component attribution; node_bytes_/leaf_bytes_ are accumulated at the
  /// same allocation sites as allocated_bytes_, so TotalBytes() ==
  /// MemoryBytes() by construction.
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("hot");
    b.Add("nodes", node_bytes_);
    b.Add("leaves", leaf_bytes_);
    return b;
  }

 private:
  // Binary patricia trie node (build-time only).
  struct PatNode {
    uint32_t bit = 0;  // discriminative bit position (global, MSB-first)
    std::unique_ptr<PatNode> zero, one;
    int32_t leaf = -1;      // key index if leaf
    uint32_t num_leaves = 0;
  };

  struct Leaf {
    Value value;
    uint32_t key_len;
    char key_data[1];
  };

  // A HOT node: sorted discriminative bit positions + per-entry partial keys
  // (entries ordered by partial key; patricia order == key order).
  struct Node {
    std::vector<uint32_t> bits;         // <= kMaxFanout - 1 positions
    std::vector<uint32_t> partial;      // per entry, extracted bit pattern
    std::vector<void*> children;        // Node* or tagged Leaf*
  };

  static bool IsLeaf(const void* p) {
    return (reinterpret_cast<uintptr_t>(p) & 1) != 0;
  }
  static const Leaf* AsLeaf(const void* p) {
    return reinterpret_cast<const Leaf*>(reinterpret_cast<uintptr_t>(p) &
                                         ~uintptr_t{1});
  }
  static void* TagLeaf(Leaf* l) {
    return reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(l) | 1);
  }

  std::unique_ptr<PatNode> BuildPatricia(const std::vector<std::string>& keys,
                                         size_t lo, size_t hi);
  void* BuildHotNode(const PatNode* pat, const std::vector<std::string>& keys,
                     const std::vector<Value>& values);
  Leaf* MakeLeaf(const std::string& key, Value value);
  void DestroyNode(void* p);

  static int KeyBit(std::string_view key, uint32_t bit) {
    size_t byte = bit / 8;
    if (byte >= key.size()) return 0;  // keys are implicitly zero-padded
    return (static_cast<unsigned char>(key[byte]) >> (7 - bit % 8)) & 1;
  }
  static uint32_t ExtractBits(std::string_view key,
                              const std::vector<uint32_t>& bits);

  static size_t NodeHeight(const void* p);

  void* root_ = nullptr;
  size_t size_ = 0;
  size_t allocated_bytes_ = 0;
  size_t node_bytes_ = 0;
  size_t leaf_bytes_ = 0;
};

}  // namespace met

#endif  // MET_HOT_HOT_H_
