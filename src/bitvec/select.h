// Sampled select support (Fig 3.3, right half): a lookup table storing the
// position of every S-th set bit; queries scan forward from the nearest
// sample using word popcounts. Works well on S-LOUDS, which is dense
// (17-34% ones) with an even distribution of set bits. The production FST
// needs no select (its sparse blocks carry child pointers); the three-array
// baseline in bench/legacy_louds.h uses this one.
#ifndef MET_BITVEC_SELECT_H_
#define MET_BITVEC_SELECT_H_

#include <cstdint>
#include <vector>

#include "bitvec/bitvector.h"
#include "common/bits.h"

namespace met {

class SelectSupport {
 public:
  SelectSupport() = default;

  SelectSupport(const BitVector* bv, uint32_t sample_rate = 64) {
    Build(bv, sample_rate);
  }

  void Build(const BitVector* bv, uint32_t sample_rate = 64) {
    bv_ = bv;
    sample_rate_ = sample_rate;
    lut_.clear();
    lut_.push_back(0);  // slot 0 unused; ranks are 1-based
    size_t ones = 0;
    const uint64_t* words = bv->data();
    for (size_t w = 0; w < bv->num_words(); ++w) {
      uint64_t word = words[w];
      size_t cnt = PopCount(word);
      size_t next_sample = (ones / sample_rate_ + 1) * sample_rate_;
      while (next_sample <= ones + cnt) {
        // The next_sample-th set bit lies inside this word.
        int within = static_cast<int>(next_sample - ones) - 1;
        lut_.push_back(static_cast<uint32_t>(w * 64 + SelectInWord(word, within)));
        next_sample += sample_rate_;
      }
      ones += cnt;
    }
  }

  /// Position of the `rank`-th set bit (rank >= 1). Precondition: the vector
  /// contains at least `rank` set bits.
  size_t Select1(size_t rank) const {
    size_t sample_idx = rank / sample_rate_;
    size_t pos = 0;
    size_t remaining = rank;
    if (sample_idx > 0) {
      if (rank % sample_rate_ == 0) return lut_[sample_idx];
      pos = lut_[sample_idx] + 1;
      remaining = rank - sample_idx * sample_rate_;
    }
    const uint64_t* words = bv_->data();
    size_t w = pos / 64;
    uint64_t word = words[w] & (~uint64_t{0} << (pos % 64));
    while (true) {
      size_t cnt = PopCount(word);
      if (cnt >= remaining)
        return w * 64 + SelectInWord(word, static_cast<int>(remaining) - 1);
      remaining -= cnt;
      word = words[++w];
    }
  }

  size_t MemoryBytes() const { return lut_.size() * sizeof(uint32_t); }

 private:
  const BitVector* bv_ = nullptr;
  uint32_t sample_rate_ = 64;
  std::vector<uint32_t> lut_;
};

}  // namespace met

#endif  // MET_BITVEC_SELECT_H_
