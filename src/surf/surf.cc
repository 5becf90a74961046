#include "surf/surf.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace met {

namespace {

/// Reads `nbits` (<= 56) key bits starting at byte offset `start` (MSB
/// first), zero padded past the end of the key.
uint64_t ExtractKeyBits(std::string_view key, uint32_t start, uint32_t nbits) {
  uint64_t v = 0;
  uint32_t got = 0;
  uint32_t byte = start;
  while (got < nbits) {
    uint32_t take = std::min<uint32_t>(8, nbits - got);
    uint8_t b = byte < key.size() ? static_cast<uint8_t>(key[byte]) : 0;
    v = (v << take) | (b >> (8 - take));
    got += take;
    ++byte;
  }
  return v;
}

void WritePacked(std::vector<uint64_t>* words, size_t bit_pos, uint64_t value,
                 uint32_t nbits) {
  for (uint32_t i = 0; i < nbits; ++i) {
    size_t p = bit_pos + i;
    if (p / 64 >= words->size()) words->resize(p / 64 + 1, 0);
    if ((value >> (nbits - 1 - i)) & 1) (*words)[p / 64] |= uint64_t{1} << (p % 64);
  }
}

uint64_t ReadPacked(const std::vector<uint64_t>& words, size_t bit_pos,
                    uint32_t nbits) {
  uint64_t v = 0;
  for (uint32_t i = 0; i < nbits; ++i) {
    size_t p = bit_pos + i;
    v = (v << 1) | ((words[p / 64] >> (p % 64)) & 1);
  }
  return v;
}

}  // namespace

void Surf::Build(const std::vector<std::string>& keys, const SurfConfig& config) {
  config_ = config;
  FstConfig fcfg;
  fcfg.mode = FstConfig::Mode::kMinUniquePrefix;
  fcfg.size_ratio = config.size_ratio;
  fcfg.max_dense_levels = config.max_dense_levels;
  fcfg.store_values = false;

  std::vector<uint32_t> leaf_key, leaf_depth;
  fst_.Build(keys, {}, fcfg, &leaf_key, &leaf_depth);

  suffix_words_.clear();
  uint32_t bits = SuffixBitsTotal();
  double depth_sum = 0;
  for (size_t i = 0; i < leaf_key.size(); ++i) depth_sum += leaf_depth[i];
  avg_leaf_depth_ =
      leaf_key.empty() ? 0 : depth_sum / static_cast<double>(leaf_key.size());
  if (bits == 0) return;

  suffix_words_.assign((leaf_key.size() * bits + 63) / 64, 0);
  for (size_t i = 0; i < leaf_key.size(); ++i) {
    const std::string& k = keys[leaf_key[i]];
    uint64_t suffix = 0;
    if (config.hash_suffix_bits > 0) {
      uint64_t h = MurmurHash64(k) &
                   ((uint64_t{1} << config.hash_suffix_bits) - 1);
      suffix = h;
    }
    if (config.real_suffix_bits > 0) {
      uint64_t real = ExtractKeyBits(k, leaf_depth[i], config.real_suffix_bits);
      suffix = (suffix << config.real_suffix_bits) | real;
    }
    WritePacked(&suffix_words_, i * bits, suffix, bits);
  }
}

uint64_t Surf::StoredSuffix(uint32_t leaf_id) const {
  return ReadPacked(suffix_words_, static_cast<size_t>(leaf_id) * SuffixBitsTotal(),
                    SuffixBitsTotal());
}

uint64_t Surf::QuerySuffix(std::string_view key, uint32_t depth) const {
  uint64_t suffix = 0;
  if (config_.hash_suffix_bits > 0) {
    suffix = MurmurHash64(key) & ((uint64_t{1} << config_.hash_suffix_bits) - 1);
  }
  if (config_.real_suffix_bits > 0) {
    suffix = (suffix << config_.real_suffix_bits) |
             ExtractKeyBits(key, depth, config_.real_suffix_bits);
  }
  return suffix;
}

uint64_t Surf::StoredRealSuffix(uint32_t leaf_id) const {
  uint64_t s = StoredSuffix(leaf_id);
  return s & ((uint64_t{1} << config_.real_suffix_bits) - 1);
}

uint64_t Surf::QueryRealSuffix(std::string_view key, uint32_t depth) const {
  return ExtractKeyBits(key, depth, config_.real_suffix_bits);
}

bool Surf::MayContain(std::string_view key) const {
  Fst::PathResult res = fst_.LookupPath(key);
  if (!res.found) return false;
  if (SuffixBitsTotal() == 0) return true;
  return StoredSuffix(res.leaf_id) == QuerySuffix(key, res.depth);
}

Surf::SeekResult Surf::MoveToNext(std::string_view key) const {
  SeekResult out;
  bool fp = false;
  Fst::Iterator it = fst_.LowerBound(key, &fp);
  if (!it.Valid()) return out;
  if (fp && config_.real_suffix_bits > 0) {
    // The stored path is a strict prefix of `key`: use the real suffix bits
    // to decide whether the truncated key may still be >= key.
    uint64_t stored = StoredRealSuffix(it.leaf_id());
    uint64_t query = QueryRealSuffix(key, static_cast<uint32_t>(it.key().size()));
    if (stored < query) {
      it.Next();
      fp = false;
      if (!it.Valid()) return out;
    }
    // stored == query keeps the fp flag; stored > query means the stored key
    // is certainly greater.
    if (fp && stored > query) fp = false;
  }
  out.found = true;
  out.fp_flag = fp;
  out.key = it.key();
  return out;
}

bool Surf::MayContainRange(std::string_view low_key,
                           std::string_view high_key) const {
  if (high_key < low_key) return false;
  SeekResult s = MoveToNext(low_key);
  if (!s.found) return false;
  if (s.fp_flag) return true;  // candidate needs verification: may exist
  // s.key is a truncated stored key >= low_key. The range may contain a key
  // iff s.key <= high_key or s.key is a prefix of high_key (possible fp).
  if (s.key <= high_key) return true;
  if (s.key.size() > high_key.size() &&
      std::string_view(s.key).substr(0, high_key.size()) == high_key)
    return false;  // s.key strictly greater and diverges
  // Prefix relation check: s.key prefix of high_key already covered by
  // s.key <= high_key; otherwise it's greater.
  return false;
}

uint64_t Surf::Count(std::string_view low_key, std::string_view high_key) const {
  if (high_key < low_key) return 0;
  // Anchor the low side at moveToNext(low) so a truncated leaf whose path is
  // a strict prefix of low_key (and whose full key may be in range) is
  // included — the count never under-counts.
  SeekResult lo = MoveToNext(low_key);
  if (!lo.found) return 0;
  bool fp_hi = false;
  Fst::Iterator hi = fst_.LowerBound(high_key, &fp_hi);
  uint64_t base;
  if (!hi.Valid()) {
    // Count everything from lo.key to the end: the synthetic bound exceeds
    // every stored path (paths are at most height() bytes).
    std::string end(fst_.height() + 1, '\xff');
    return fst_.CountRange(lo.key, end);
  }
  base = fst_.CountRange(lo.key, hi.key());
  // Include the hi-side boundary leaf when it may fall inside the range:
  // exact match (inclusive bound) or a truncated prefix of high_key.
  if (hi.key() == high_key || fp_hi) ++base;
  return base;
}

size_t Surf::MemoryBytes() const {
  return fst_.FilterMemoryBytes() + suffix_words_.capacity() * sizeof(uint64_t);
}

MemoryBreakdown Surf::Breakdown() const {
  MemoryBreakdown b("surf");
  b.AddChild("trie", fst_.FilterBreakdown());
  b.Add("suffixes", suffix_words_.capacity() * sizeof(uint64_t));
  return b;
}

}  // namespace met
