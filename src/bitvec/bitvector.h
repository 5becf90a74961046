// Append-only bit vector backing the LOUDS-Dense/Sparse encodings.
#ifndef MET_BITVEC_BITVECTOR_H_
#define MET_BITVEC_BITVECTOR_H_

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/bits.h"

namespace met {

/// A growable, packed vector of bits. Bit positions are absolute (0-based);
/// bit i lives in word i/64 at offset i%64 (LSB first).
class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `n` zero bits.
  explicit BitVector(size_t n) : num_bits_(n), words_((n + 63) / 64, 0) {}

  /// Appends `n` zero bits.
  void Extend(size_t n) {
    num_bits_ += n;
    words_.resize((num_bits_ + 63) / 64, 0);
  }

  void PushBack(bool bit) {
    if (num_bits_ % 64 == 0) words_.push_back(0);
    if (bit) words_.back() |= uint64_t{1} << (num_bits_ % 64);
    ++num_bits_;
  }

  /// Appends the low `n` bits (n <= 64) of `bits`, LSB first.
  void PushBits(uint64_t bits, int n) {
    for (int i = 0; i < n; ++i) PushBack((bits >> i) & 1);
  }

  void Set(size_t pos) {
    MET_DCHECK(pos < num_bits_);
    words_[pos / 64] |= uint64_t{1} << (pos % 64);
  }

  void Clear(size_t pos) {
    MET_DCHECK(pos < num_bits_);
    words_[pos / 64] &= ~(uint64_t{1} << (pos % 64));
  }

  bool Get(size_t pos) const {
    MET_DCHECK(pos < num_bits_);
    return (words_[pos / 64] >> (pos % 64)) & 1;
  }

  bool operator[](size_t pos) const { return Get(pos); }

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  const uint64_t* data() const { return words_.data(); }
  size_t num_words() const { return words_.size(); }

  /// Number of set bits in [0, size).
  size_t CountOnes() const {
    size_t n = 0;
    for (uint64_t w : words_) n += PopCount(w);
    return n;
  }

  /// Position of the next set bit at or after `pos`, or size() if none.
  size_t NextSetBit(size_t pos) const {
    if (pos >= num_bits_) return num_bits_;
    size_t w = pos / 64;
    uint64_t word = words_[w] & (~uint64_t{0} << (pos % 64));
    while (true) {
      if (word != 0) {
        size_t found = w * 64 + CountTrailingZeros(word);
        return found < num_bits_ ? found : num_bits_;
      }
      if (++w >= words_.size()) return num_bits_;
      word = words_[w];
    }
  }

  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// Serialization hooks (rank/select supports are rebuilt after load).
  void SetRaw(size_t num_bits, std::vector<uint64_t>&& words) {
    num_bits_ = num_bits;
    words_ = std::move(words);
  }
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace met

#endif  // MET_BITVEC_BITVECTOR_H_
