// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used as the per-block SSTable trailer checksum and for WAL/MANIFEST record
// integrity. Uses the SSE4.2 crc32 instruction when the build enables it
// (CMake adds -msse4.2 when a configure-time run check passes); otherwise
// software slicing-by-4 with constexpr-generated tables. Both compute the
// same function. Known-answer vector: Crc32c("123456789") == 0xE3069283.
#ifndef MET_IO_CRC32C_H_
#define MET_IO_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace met::io {

namespace crc32c_detail {

inline constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::array<uint32_t, 256>, 4> MakeTables() {
  std::array<std::array<uint32_t, 256>, 4> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
    t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
    t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
  }
  return t;
}

inline constexpr auto kTables = MakeTables();

}  // namespace crc32c_detail

/// Slicing-by-4 software CRC32C; the portable fallback.
inline uint32_t Crc32cSoftware(const void* data, size_t n, uint32_t init = 0) {
  const auto& t = crc32c_detail::kTables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~init;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return ~crc;
}

#if defined(__SSE4_2__)
/// SSE4.2 crc32: 8 bytes per instruction, bytewise head and tail.
inline uint32_t Crc32cHardware(const void* data, size_t n, uint32_t init = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~init;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n)
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    crc = _mm_crc32_u64(crc, w);
  }
  for (; n > 0; --n) crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p++);
  return ~static_cast<uint32_t>(crc);
}
#endif

/// Incremental CRC32C: pass the previous return value as `init` to extend a
/// running checksum across multiple buffers. `init = 0` starts a fresh sum.
inline uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0) {
#if defined(__SSE4_2__)
  return Crc32cHardware(data, n, init);
#else
  return Crc32cSoftware(data, n, init);
#endif
}

inline uint32_t Crc32c(std::string_view s, uint32_t init = 0) {
  return Crc32c(s.data(), s.size(), init);
}

}  // namespace met::io

#endif  // MET_IO_CRC32C_H_
