// Adaptive Radix Tree (Leis et al., ICDE'13), the thesis's trie baseline
// (Section 2.1). 256-way radix tree over arbitrary byte-string keys with
// four adaptive node layouts (Node4/16/48/256), path compression (hybrid:
// up to kMaxPrefix bytes inline, longer prefixes verified against a leaf)
// and lazy expansion (single-key subtrees stored as leaves).
//
// Keys that are proper prefixes of other keys are supported by giving every
// internal node an optional terminal leaf ("the path to this node is itself
// a stored key"), mirroring FST's IsPrefixKey bit.
#ifndef MET_ART_ART_H_
#define MET_ART_ART_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "check/fwd.h"
#include "common/assert.h"
#include "prof/memory_breakdown.h"

namespace met {

class Art {
 public:
  using Value = uint64_t;

  Art() = default;
  ~Art() { DestroyNode(root_); }

  Art(const Art&) = delete;
  Art& operator=(const Art&) = delete;

  /// Inserts; returns false (tree unchanged) if the key exists.
  bool Insert(std::string_view key, Value value) {
    return InsertImpl(key, value, /*overwrite=*/false);
  }

  void InsertOrAssign(std::string_view key, Value value) {
    InsertImpl(key, value, /*overwrite=*/true);
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(std::string_view key, Value* value = nullptr) const;

  /// Overwrites an existing key's value; false if absent.
  bool Update(std::string_view key, Value value);

  /// Removes a key (node layouts are not shrunk). False if absent.
  bool Erase(std::string_view key);

  /// Collects up to `n` values (and keys, if `keys_out` != nullptr) starting
  /// at the smallest key >= `key`, in key order. Returns the count.
  size_t Scan(std::string_view key, size_t n, std::vector<Value>* out,
              std::vector<std::string>* keys_out = nullptr) const;

  /// In-order visit of all entries (used to stream sorted entries out for
  /// merging into a compact structure).
  void VisitAll(const std::function<void(std::string_view, Value)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Clear() {
    DestroyNode(root_);
    root_ = nullptr;
    size_ = 0;
  }

  size_t MemoryBytes() const;

  /// Per-node-layout attribution; TotalBytes() == MemoryBytes() (same walk).
  MemoryBreakdown Breakdown() const;

  /// Fraction of allocated child slots in use (Section 2.2 reports ~51%
  /// for 64-bit random integer keys).
  double NodeOccupancy() const;

  /// Verifies node-type bounds, in-node label ordering, Node48 index
  /// bijection, path-compression prefix consistency, and leaf count.
  /// No-op unless MET_CHECK_ENABLED (impl in check/art_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  bool CheckValidate(std::ostream& os) const;  // check/art_check.cc
  friend struct check::TestAccess;

  static constexpr int kMaxPrefix = 10;

  enum NodeType : uint8_t { kNode4, kNode16, kNode48, kNode256 };

  struct Leaf {
    Value value;
    uint32_t key_len;
    char key_data[1];  // key_len bytes

    std::string_view key() const { return {key_data, key_len}; }
  };

  struct Node {
    NodeType type;
    uint16_t num_children = 0;
    uint32_t prefix_len = 0;                 // full length (may exceed inline)
    unsigned char prefix[kMaxPrefix] = {0};  // first min(prefix_len, 10) bytes
    Leaf* terminal = nullptr;  // key ending exactly at this node, if any
  };

  struct Node4 : Node {
    unsigned char keys[4];
    void* children[4] = {nullptr, nullptr, nullptr, nullptr};
  };

  struct Node16 : Node {
    unsigned char keys[16];
    void* children[16] = {};
  };

  struct Node48 : Node {
    unsigned char child_index[256];  // 0xFF = empty
    void* children[48] = {};
  };

  struct Node256 : Node {
    void* children[256] = {};
  };

  // --- tagged pointers: LSB set = Leaf* ---
  static bool IsLeaf(const void* p) {
    return (reinterpret_cast<uintptr_t>(p) & 1) != 0;
  }
  static Leaf* AsLeaf(void* p) {
    return reinterpret_cast<Leaf*>(reinterpret_cast<uintptr_t>(p) & ~uintptr_t{1});
  }
  static const Leaf* AsLeaf(const void* p) {
    return reinterpret_cast<const Leaf*>(reinterpret_cast<uintptr_t>(p) &
                                         ~uintptr_t{1});
  }
  static void* TagLeaf(Leaf* l) {
    return reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(l) | 1);
  }
  static Node* AsNode(void* p) { return static_cast<Node*>(p); }
  static const Node* AsNode(const void* p) { return static_cast<const Node*>(p); }

  static Leaf* NewLeaf(std::string_view key, Value value);
  static void FreeLeaf(Leaf* l);
  static Node* NewNode(NodeType type);
  static void FreeNode(Node* n);
  void DestroyNode(void* p);

  static void** FindChild(Node* n, unsigned char byte);
  static const void* const* FindChild(const Node* n, unsigned char byte);
  static void AddChild(Node** n_ref, unsigned char byte, void* child);
  static void RemoveChild(Node* n, unsigned char byte, void** child_slot);
  static Node* Grow(Node* n);
  static void VisitNode(const void* p,
                        const std::function<void(std::string_view, Value)>& fn);
  static void StatNode(const void* p, void* stats_void);

  /// Compares key[depth..] with the node's compressed prefix. Returns the
  /// number of matching bytes; uses `any_leaf` for bytes beyond the inline
  /// prefix window.
  static uint32_t CheckPrefix(const Node* n, std::string_view key, size_t depth);
  static const Leaf* AnyLeaf(const void* p);

  bool InsertImpl(std::string_view key, Value value, bool overwrite);
  void* EraseRecurse(void* p, std::string_view key, size_t depth, bool* erased);
  bool InsertRecurse(void** ref, std::string_view key, size_t depth, Value value,
                     bool overwrite);

  struct ScanState {
    std::string_view lower;
    size_t limit;
    size_t count = 0;
    std::vector<Value>* out;
    std::vector<std::string>* keys_out;
  };
  // Returns true when the limit has been reached.
  static bool ScanNode(const void* p, size_t depth, bool past, ScanState* st);
  static bool EmitLeaf(const Leaf* l, bool past, ScanState* st);

  void* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace met

#endif  // MET_ART_ART_H_
