// Compact (static) Masstree, per Figure 2.4 of the thesis: each trie node's
// internal B+tree is flattened into parallel sorted arrays (keyslices,
// length classes, links) searched by binary search, and all key suffixes of
// a node are concatenated into a single byte array with an offset array —
// replacing the per-leaf keybags.
#ifndef MET_MASSTREE_COMPACT_MASSTREE_H_
#define MET_MASSTREE_COMPACT_MASSTREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "prof/memory_breakdown.h"

namespace met {

class CompactMasstree {
 public:
  using Value = uint64_t;

  CompactMasstree() = default;
  ~CompactMasstree() { DestroyNode(root_); }

  CompactMasstree(const CompactMasstree&) = delete;
  CompactMasstree& operator=(const CompactMasstree&) = delete;

  /// Builds from sorted, unique keys with parallel values.
  void Build(const std::vector<std::string>& keys,
             const std::vector<Value>& values);

  /// Unified point lookup (met::ReadOnlyPointIndex surface).
  bool Lookup(std::string_view key, Value* value = nullptr) const;

  size_t Scan(std::string_view key, size_t n, std::vector<Value>* out,
              std::vector<std::string>* keys_out = nullptr) const;

  void VisitAll(const std::function<void(std::string_view, Value)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t MemoryBytes() const;

  /// Component attribution; TotalBytes() == MemoryBytes() (same walk).
  MemoryBreakdown Breakdown() const;

 private:
  enum Kind : uint8_t { kValue, kSuffix, kChild };

  struct Node {
    // Parallel sorted arrays, ordered by (slice, lenx).
    std::vector<uint64_t> slices;
    std::vector<uint8_t> lenx;       // 0..8 terminal, 9 extended
    std::vector<uint8_t> kinds;      // Kind
    std::vector<uint64_t> values;    // kValue/kSuffix: value; kChild: unused
    std::vector<Node*> children;     // kChild targets, indexed by child_idx
    std::vector<uint32_t> child_idx; // per entry: index into children (or 0)
    // Concatenated suffixes (kSuffix entries), addressed by offsets.
    std::string suffixes;
    std::vector<uint32_t> suffix_off;  // size n+1

    std::string_view SuffixAt(size_t i) const {
      return std::string_view(suffixes.data() + suffix_off[i],
                              suffix_off[i + 1] - suffix_off[i]);
    }
  };

  Node* BuildRange(const std::vector<std::string>& keys,
                   const std::vector<Value>& values, size_t lo, size_t hi,
                   size_t depth);
  static void DestroyNode(Node* n);
  static size_t NodeMemory(const Node* n);
  static void NodeBreakdown(const Node* n, size_t* header_bytes,
                            size_t* entry_bytes, size_t* link_bytes,
                            size_t* suffix_bytes);

  /// First index i in `n` with (slice, lenx) >= the given pair.
  static size_t LowerBoundEntry(const Node* n, uint64_t slice, uint8_t lenx);

  struct ScanState {
    std::string_view lower;
    size_t limit;
    size_t count = 0;
    std::vector<Value>* out;
    std::vector<std::string>* keys_out;
    std::string path;
  };
  static bool ScanNode(const Node* n, std::string_view lower, bool past,
                       ScanState* st);
  static void VisitNode(const Node* n, std::string* path,
                        const std::function<void(std::string_view, Value)>& fn);

  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace met

#endif  // MET_MASSTREE_COMPACT_MASSTREE_H_
