// Standard Bloom filter (RocksDB-style double hashing over a 64-bit Murmur
// hash), the point-query baseline for SuRF in Chapter 4.
#ifndef MET_BLOOM_BLOOM_H_
#define MET_BLOOM_BLOOM_H_

#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "prof/memory_breakdown.h"

namespace met {

class BloomFilter {
 public:
  /// `bits_per_key` sizes the filter; the number of probes is chosen as
  /// k = bits_per_key * ln2 (the optimum), clamped to [1, 30].
  explicit BloomFilter(size_t num_keys, double bits_per_key = 10.0) {
    num_probes_ = static_cast<int>(bits_per_key * 0.69314718056 + 0.5);
    if (num_probes_ < 1) num_probes_ = 1;
    if (num_probes_ > 30) num_probes_ = 30;
    size_t bits = static_cast<size_t>(num_keys * bits_per_key);
    if (bits < 64) bits = 64;
    words_.assign((bits + 63) / 64, 0);
    num_bits_ = words_.size() * 64;
  }

  void Add(std::string_view key) { AddHash(MurmurHash64(key)); }
  void Add(uint64_t key) { AddHash(MixHash64(key)); }

  bool MayContain(std::string_view key) const {
    return MayContainHash(MurmurHash64(key));
  }
  bool MayContain(uint64_t key) const { return MayContainHash(MixHash64(key)); }

  void AddHash(uint64_t h) {
    uint64_t delta = (h >> 17) | (h << 47);
    for (int i = 0; i < num_probes_; ++i) {
      size_t bit = h % num_bits_;
      words_[bit / 64] |= uint64_t{1} << (bit % 64);
      h += delta;
    }
  }

  bool MayContainHash(uint64_t h) const {
    uint64_t delta = (h >> 17) | (h << 47);
    for (int i = 0; i < num_probes_; ++i) {
      size_t bit = h % num_bits_;
      if (!((words_[bit / 64] >> (bit % 64)) & 1)) return false;
      h += delta;
    }
    return true;
  }

  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Single-component attribution; TotalBytes() == MemoryBytes().
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("bloom");
    b.Add("bit_array", words_.size() * sizeof(uint64_t));
    return b;
  }

 private:
  int num_probes_;
  size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace met

#endif  // MET_BLOOM_BLOOM_H_
