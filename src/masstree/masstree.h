// Simplified Masstree (Mao et al., EuroSys'12): a trie with 8-byte keyslice
// fanout where each trie node is a B+tree over (keyslice, length-class), as
// in Figure 2.1 of the thesis. Key suffixes are stored in per-entry keybag
// records; when two keys share a slice, the entry expands into a lower trie
// layer.
//
// The length class `lenx` is 0..8 for keys that terminate within the slice
// (ordering a key before its extensions, e.g. "ab" < "ab\0") and 9 for keys
// that continue past the slice (suffix record or child layer).
#ifndef MET_MASSTREE_MASSTREE_H_
#define MET_MASSTREE_MASSTREE_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "btree/btree.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "prof/memory_breakdown.h"

namespace met {

namespace masstree_internal {

struct MtKey {
  uint64_t slice;  // big-endian packed, zero padded
  uint8_t lenx;    // 0..8 terminal; 9 extended

  auto operator<=>(const MtKey&) const = default;
};

/// Packs the first min(8, s.size()) bytes of `s` big-endian, zero padded.
inline uint64_t PackSlice(std::string_view s) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i)
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[i])) << (56 - 8 * i);
  return v;
}

/// Unpacks `len` (<= 8) bytes of a big-endian slice into a string.
inline void AppendSlice(uint64_t slice, int len, std::string* out) {
  for (int i = 0; i < len; ++i)
    out->push_back(static_cast<char>((slice >> (56 - 8 * i)) & 0xFF));
}

inline MtKey MakeMtKey(std::string_view remainder) {
  return {PackSlice(remainder),
          static_cast<uint8_t>(remainder.size() <= 8 ? remainder.size() : 9)};
}

}  // namespace masstree_internal

class Masstree {
 public:
  using Value = uint64_t;

  Masstree() = default;
  ~Masstree();

  Masstree(const Masstree&) = delete;
  Masstree& operator=(const Masstree&) = delete;

  bool Insert(std::string_view key, Value value) {
    return InsertImpl(key, value, /*overwrite=*/false);
  }
  void InsertOrAssign(std::string_view key, Value value) {
    InsertImpl(key, value, /*overwrite=*/true);
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(std::string_view key, Value* value = nullptr) const;

  bool Update(std::string_view key, Value value);
  bool Erase(std::string_view key);

  size_t Scan(std::string_view key, size_t n, std::vector<Value>* out,
              std::vector<std::string>* keys_out = nullptr) const;

  void VisitAll(const std::function<void(std::string_view, Value)>& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t MemoryBytes() const;

  /// Component attribution; TotalBytes() == MemoryBytes() (same walk).
  MemoryBreakdown Breakdown() const;

  void Clear() {
    DestroyLayer(root_);
    root_ = nullptr;
    size_ = 0;
  }

  /// Verifies keyslice packing, length-class/link-kind consistency, keybag
  /// suffix placement, and global key order across layers. No-op unless
  /// MET_CHECK_ENABLED (impl in check/masstree_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  bool CheckValidate(std::ostream& os) const;  // check/masstree_check.cc
  friend struct check::TestAccess;

  using MtKey = masstree_internal::MtKey;

  struct SuffixRec {  // keybag entry
    std::string suffix;
    Value value;
  };

  struct Layer;

  struct Link {
    enum Kind : uint8_t { kValue, kSuffix, kChild } kind;
    union {
      Value value;
      SuffixRec* suffix;
      Layer* child;
    };
  };

  struct Layer {
    BTree<MtKey, Link, 512> tree;
  };

  bool InsertImpl(std::string_view key, Value value, bool overwrite);
  bool InsertLayer(Layer* layer, std::string_view remainder, Value value,
                   bool overwrite);

  struct ScanState {
    std::string_view lower;
    size_t limit;
    size_t count = 0;
    std::vector<Value>* out;
    std::vector<std::string>* keys_out;
    std::string path;
  };
  static bool ScanLayer(const Layer* layer, std::string_view lower, bool past,
                        ScanState* st);

  static void VisitLayer(const Layer* layer, std::string* path,
                         const std::function<void(std::string_view, Value)>& fn);
  static void DestroyLayer(Layer* layer);
  static size_t LayerMemory(const Layer* layer);
  static void LayerBreakdown(const Layer* layer, size_t* tree_bytes,
                             size_t* suffix_bytes, size_t* layers);

  Layer* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace met

#endif  // MET_MASSTREE_MASSTREE_H_
