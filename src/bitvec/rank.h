// Rank-support structures over BitVector.
//
// RankSupport is the FST-customized single-level lookup table (Fig 3.3 of the
// thesis): a 32-bit precomputed rank per fixed-size basic block, plus popcount
// within the block. Block size 64 is used for LOUDS-Dense (one popcount per
// query); 512 (one cacheline per block, 6.25% overhead) was the thesis's
// LOUDS-Sparse choice, kept by the three-array baseline in
// bench/legacy_louds.h. The production LOUDS-Sparse keeps its rank inline in
// each block (fst/fst.h).
//
// PoppyRank is a generic two-level baseline approximating Zhou et al.'s
// "Poppy" used by the Fig 3.6 optimization-breakdown experiment.
#ifndef MET_BITVEC_RANK_H_
#define MET_BITVEC_RANK_H_

#include <cstdint>
#include <vector>

#include "bitvec/bitvector.h"
#include "common/bits.h"
#include "common/prefetch.h"

namespace met {

/// Single-level-LUT rank over an externally owned BitVector.
/// Rank1(pos) counts set bits in positions [0, pos] (inclusive), matching the
/// navigation formulas in Chapter 3.
class RankSupport {
 public:
  RankSupport() = default;

  RankSupport(const BitVector* bv, uint32_t block_bits) { Build(bv, block_bits); }

  void Build(const BitVector* bv, uint32_t block_bits) {
    bv_ = bv;
    block_bits_ = block_bits;
    size_t num_blocks = bv->size() / block_bits + 1;
    lut_.assign(num_blocks, 0);
    uint32_t running = 0;
    const uint64_t* words = bv->data();
    size_t num_words = bv->num_words();
    for (size_t b = 0; b < num_blocks; ++b) {
      lut_[b] = running;
      size_t word_begin = b * (block_bits / 64);
      size_t word_end = word_begin + block_bits / 64;
      for (size_t w = word_begin; w < word_end && w < num_words; ++w)
        running += PopCount(words[w]);
    }
  }

  /// Number of set bits in [0, pos] (pos inclusive).
  size_t Rank1(size_t pos) const {
    size_t block = pos / block_bits_;
    size_t n = lut_[block];
    size_t word_begin = block * (block_bits_ / 64);
    size_t last_word = pos / 64;
    const uint64_t* words = bv_->data();
    for (size_t w = word_begin; w < last_word; ++w) n += PopCount(words[w]);
    // Partial final word: include bits [0, pos%64].
    uint64_t mask = ~uint64_t{0} >> (63 - pos % 64);
    n += PopCount(words[last_word] & mask);
    return n;
  }

  /// Number of zero bits in [0, pos].
  size_t Rank0(size_t pos) const { return pos + 1 - Rank1(pos); }

  /// Prefetches everything Rank1(pos) will touch: the LUT entry and the
  /// block's first bit-vector word (a basic block is at most 512 bits, so
  /// the popcount loop spans at most two lines from there). Used by the
  /// FST batch kernel (Fst::PrefetchStep) to hide the miss one pipeline
  /// stage ahead.
  void PrefetchRank1(size_t pos) const {
    size_t block = pos / block_bits_;
    PrefetchRead(&lut_[block]);
    PrefetchRead(bv_->data() + block * (block_bits_ / 64));
  }

  size_t MemoryBytes() const { return lut_.size() * sizeof(uint32_t); }

 private:
  const BitVector* bv_ = nullptr;
  uint32_t block_bits_ = 512;
  std::vector<uint32_t> lut_;
};

/// Two-level rank baseline in the style of Poppy: 32-bit superblock counts
/// every 2048 bits plus packed 16-bit sub-block offsets every 512 bits.
/// Slower than RankSupport for FST's access pattern because it needs two
/// table lookups; used only as the un-optimized baseline in Fig 3.6.
class PoppyRank {
 public:
  PoppyRank() = default;

  explicit PoppyRank(const BitVector* bv) { Build(bv); }

  void Build(const BitVector* bv) {
    bv_ = bv;
    size_t num_super = bv->size() / kSuperBits + 1;
    super_.assign(num_super, 0);
    sub_.assign(num_super * kSubPerSuper, 0);
    const uint64_t* words = bv->data();
    size_t num_words = bv->num_words();
    uint64_t running = 0;
    for (size_t s = 0; s < num_super; ++s) {
      super_[s] = running;
      uint64_t within = 0;
      for (size_t j = 0; j < kSubPerSuper; ++j) {
        sub_[s * kSubPerSuper + j] = static_cast<uint16_t>(within);
        size_t word_begin = (s * kSuperBits + j * kSubBits) / 64;
        for (size_t w = word_begin; w < word_begin + kSubBits / 64; ++w)
          if (w < num_words) within += PopCount(words[w]);
      }
      running += within;
    }
  }

  size_t Rank1(size_t pos) const {
    size_t s = pos / kSuperBits;
    size_t j = (pos % kSuperBits) / kSubBits;
    size_t n = super_[s] + sub_[s * kSubPerSuper + j];
    size_t word_begin = (s * kSuperBits + j * kSubBits) / 64;
    size_t last_word = pos / 64;
    const uint64_t* words = bv_->data();
    for (size_t w = word_begin; w < last_word; ++w) n += PopCount(words[w]);
    uint64_t mask = ~uint64_t{0} >> (63 - pos % 64);
    n += PopCount(words[last_word] & mask);
    return n;
  }

  size_t MemoryBytes() const {
    return super_.size() * sizeof(uint64_t) + sub_.size() * sizeof(uint16_t);
  }

 private:
  static constexpr size_t kSuperBits = 2048;
  static constexpr size_t kSubBits = 512;
  static constexpr size_t kSubPerSuper = kSuperBits / kSubBits;

  const BitVector* bv_ = nullptr;
  std::vector<uint64_t> super_;
  std::vector<uint16_t> sub_;
};

}  // namespace met

#endif  // MET_BITVEC_RANK_H_
