// Unified index API: the concept layer every met search structure conforms
// to, plus the uniform LookupResult record.
//
// Terminology (aligned across the whole library):
//   Lookup    — exact point lookup:  bool Lookup(key, Value* out = nullptr)
//   Insert    — unique insert (false on duplicate)
//   Erase     — point delete
//   Scan      — ordered scan of up to n values from lower_bound(key)
//   MemoryBytes — total structure footprint in bytes
//
// Key convention: string-keyed structures (ART, Masstree, HOT, FST, SuRF,
// the prefix B+tree) take std::string_view; the generic template trees
// (B+tree, skip list, their compact forms) take their Key type, which is
// std::string for byte-string workloads.
//
// Concepts are parameterized on the key type a caller intends to use, e.g.
//   static_assert(met::PointIndex<met::Art, std::string_view>);
//   static_assert(met::RangeIndex<met::BTree<uint64_t>, uint64_t>);
// so one structure can conform for several key spellings (std::string and
// std::string_view both work against ART).
#ifndef MET_COMMON_INDEX_API_H_
#define MET_COMMON_INDEX_API_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "prof/memory_breakdown.h"

namespace met {

/// Uniform result of one unified point lookup. The FST batch kernel and
/// ShardEngine::GetBatch fill arrays of these.
struct LookupResult {
  bool found = false;
  uint64_t value = 0;

  explicit operator bool() const { return found; }
  friend bool operator==(const LookupResult&, const LookupResult&) = default;
};

/// Read-only point-lookup surface: static structures (FST, the compact
/// trees) satisfy exactly this.
template <typename T, typename K, typename V = uint64_t>
concept ReadOnlyPointIndex =
    requires(const T& t, const K& k, V* vp) {
      { t.Lookup(k, vp) } -> std::convertible_to<bool>;
      { t.MemoryBytes() } -> std::convertible_to<size_t>;
      { t.size() } -> std::convertible_to<size_t>;
    };

/// Full dynamic point index (the hybrid stages, the original trees).
template <typename T, typename K, typename V = uint64_t>
concept PointIndex =
    ReadOnlyPointIndex<T, K, V> &&
    requires(T& t, const K& k, const V& v) {
      { t.Insert(k, v) } -> std::convertible_to<bool>;
      { t.Erase(k) } -> std::convertible_to<bool>;
    };

/// Point index that also serves ordered scans.
template <typename T, typename K, typename V = uint64_t>
concept RangeIndex =
    PointIndex<T, K, V> &&
    requires(const T& t, const K& k, size_t n, std::vector<V>* out) {
      { t.Scan(k, n, out) } -> std::convertible_to<size_t>;
    };

/// Approximate membership filter (Bloom, SuRF): false means certainly
/// absent. SuRF additionally answers MayContainRange; Bloom also conforms
/// for K = uint64_t.
template <typename T, typename K = std::string_view>
concept Filter = requires(const T& t, const K& k) {
  { t.MayContain(k) } -> std::convertible_to<bool>;
  { t.MemoryBytes() } -> std::convertible_to<size_t>;
};

/// Component-level memory attribution: Breakdown() returns a MemoryBreakdown
/// tree whose TotalBytes() equals MemoryBytes() exactly — both are
/// computed from the same primitives, and tests/prof_test.cc holds every
/// structure to the equality. Cold-path only (walks the structure).
template <typename T>
concept HasMemoryBreakdown = requires(const T& t) {
  { t.Breakdown() } -> std::convertible_to<MemoryBreakdown>;
};

}  // namespace met

#endif  // MET_COMMON_INDEX_API_H_
