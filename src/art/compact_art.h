// Compact (static) ART: the Chapter 2 D-to-S result for the Adaptive Radix
// Tree. Because ART's trie shape prevents filling fixed-size nodes, every
// node is custom-sized to its exact content (Compaction rule): a node with n
// children uses Layout 1 (sorted key-byte array + child array of length
// exactly n) when n <= 227, else Layout 3 (a direct-indexed 256-pointer
// array), matching Section 2.2. Path compression stores the full prefix
// inline; single-key subtrees collapse into suffix leaves (lazy expansion).
#ifndef MET_ART_COMPACT_ART_H_
#define MET_ART_COMPACT_ART_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "prof/memory_breakdown.h"

namespace met {

class CompactArt {
 public:
  using Value = uint64_t;

  CompactArt() = default;
  ~CompactArt() { DestroyNode(root_); }

  CompactArt(const CompactArt&) = delete;
  CompactArt& operator=(const CompactArt&) = delete;

  /// Builds from sorted, unique keys with parallel values.
  void Build(const std::vector<std::string>& keys,
             const std::vector<Value>& values);

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(std::string_view key, Value* value = nullptr) const;

  /// Collects up to `n` values (and keys) from the smallest key >= `key`.
  size_t Scan(std::string_view key, size_t n, std::vector<Value>* out,
              std::vector<std::string>* keys_out = nullptr) const;

  /// In-order visit of all entries with reconstructed full keys.
  void VisitAll(const std::function<void(std::string_view, Value)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t MemoryBytes() const { return allocated_bytes_; }

  /// Component attribution; node_bytes_/leaf_bytes_ are accumulated at the
  /// same allocation sites as allocated_bytes_, so TotalBytes() ==
  /// MemoryBytes() by construction.
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("compact_art");
    b.Add("node_buffers", node_bytes_);
    b.Add("suffix_leaves", leaf_bytes_);
    return b;
  }

 private:
  static constexpr int kLayout1Max = 227;  // Section 2.2 threshold

  // Node buffer layout (raw allocation, 8-byte aligned):
  //   Header | prefix bytes | [terminal Value] | layout-specific arrays
  struct Header {
    uint8_t layout;  // 1 or 3
    uint8_t has_terminal;
    uint16_t num_children;
    uint32_t prefix_len;
  };

  struct Leaf {
    Value value;
    uint32_t suffix_len;
    char suffix[1];
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

  // Accessors into a raw node buffer.
  static const char* Prefix(const Header* h) {
    return reinterpret_cast<const char*>(h + 1);
  }
  static const Value* TerminalValue(const Header* h);
  static const unsigned char* Layout1Keys(const Header* h);
  static void* const* Children(const Header* h);

  void* BuildRange(const std::vector<std::string>& keys,
                   const std::vector<Value>& values, size_t lo, size_t hi,
                   size_t depth);
  void* AllocNode(uint8_t layout, bool has_terminal, uint16_t num_children,
                  std::string_view prefix);
  Leaf* AllocLeaf(std::string_view suffix, Value value);
  void DestroyNode(void* p);

  static const void* FindChildPtr(const Header* h, unsigned char byte);

  struct ScanState {
    std::string_view lower;
    size_t limit;
    size_t count = 0;
    std::vector<Value>* out;
    std::vector<std::string>* keys_out;
    std::string path;  // bytes of the current root-to-node path
  };
  static bool ScanNode(const void* p, bool past, ScanState* st);
  static bool EmitEntry(std::string_view suffix, Value value, bool past,
                        ScanState* st);

  static void VisitNode(const void* p, std::string* path,
                        const std::function<void(std::string_view, Value)>& fn);

  void* root_ = nullptr;
  size_t size_ = 0;
  size_t allocated_bytes_ = 0;
  size_t node_bytes_ = 0;
  size_t leaf_bytes_ = 0;
};

}  // namespace met

#endif  // MET_ART_COMPACT_ART_H_
