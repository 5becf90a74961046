// Bit-manipulation primitives shared by the bitvector, FST and HOPE modules.
#ifndef MET_COMMON_BITS_H_
#define MET_COMMON_BITS_H_

#include <cstdint>
#include <cstddef>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

namespace met {

/// Number of set bits in `x`.
inline int PopCount(uint64_t x) { return __builtin_popcountll(x); }

/// Index (0 = LSB) of the lowest set bit. Undefined for x == 0.
inline int CountTrailingZeros(uint64_t x) { return __builtin_ctzll(x); }

/// Position (0 = LSB) of the r-th (0-based) set bit of `x`.
/// Precondition: PopCount(x) > r.
inline int SelectInWord(uint64_t x, int r) {
#if defined(__BMI2__)
  return CountTrailingZeros(_pdep_u64(uint64_t{1} << r, x));
#else
  for (int i = 0; i < r; ++i) x &= x - 1;  // clear r lowest set bits
  return CountTrailingZeros(x);
#endif
}

/// Rounds `n` up to the next multiple of `align` (align must be a power of 2).
inline size_t RoundUp(size_t n, size_t align) {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace met

#endif  // MET_COMMON_BITS_H_
