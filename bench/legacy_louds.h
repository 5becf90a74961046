// The earlier three-array LOUDS-DS layout, kept only as the baseline of the
// Figure 3.5/3.6 benches: LOUDS-Sparse as three parallel sequences (S-Labels
// bytes, S-HasChild and S-LOUDS bit vectors) with separate rank tables and a
// sampled select table, where each Section 3.6 optimization can be swapped
// for the generic alternative it replaced:
//   fast_rank          single-level rank LUT vs Poppy-style two-level rank
//   fast_select        sampled select LUT vs binary search over rank
//   simd_label_search  SSE2 label search vs a byte loop
//   prefetch           has-child line prefetch vs none
//
// The production met::Fst stores LOUDS-Sparse as 128-byte blocks instead
// (DESIGN.md). Fst::Serialize writes exactly the three flat sequences, so
// LegacyLoudsTrie loads an Fst image and encodes the very same trie: the
// benches compare layouts, not tries. Full-key mode only.
#ifndef MET_BENCH_LEGACY_LOUDS_H_
#define MET_BENCH_LEGACY_LOUDS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/bitvector.h"
#include "bitvec/rank.h"
#include "bitvec/select.h"
#include "fst/fst.h"

#ifdef MET_USE_SSE2
#include <emmintrin.h>
#endif

namespace met::bench {

struct LegacyOptions {
  bool fast_rank = true;
  bool fast_select = true;
  bool simd_label_search = true;
  bool prefetch = true;
};

class LegacyLoudsTrie {
 public:
  /// Builds `fst` from keys/values and loads its image.
  void Build(const std::vector<std::string>& keys,
             const std::vector<uint64_t>& values, int max_dense_levels,
             LegacyOptions opts) {
    FstConfig cfg;
    cfg.max_dense_levels = max_dense_levels;
    Fst fst;
    fst.Build(keys, values, cfg);
    std::string image;
    fst.Serialize(&image);
    Load(image, opts);
  }

  bool Lookup(std::string_view key, uint64_t* value) const {
    if (num_leaves_ == 0) return false;
    size_t node = 0, level = 0;
    while (level < dense_levels_) {
      if (level == key.size()) {
        if (!d_is_prefix_.Get(node)) return false;
        return Found(DensePrefixValuePos(node), value);
      }
      size_t pos = node * 256 + static_cast<uint8_t>(key[level]);
      if (opts_.prefetch) __builtin_prefetch(d_has_child_.data() + pos / 64);
      if (!d_labels_.Get(pos)) return false;
      if (!d_has_child_.Get(pos))
        return level + 1 == key.size() && Found(DenseValuePos(pos), value);
      node = Rank(d_has_child_rank_, d_has_child_poppy_, pos);
      ++level;
      if (node >= dense_node_count_) break;
    }
    size_t pos = SelectLouds(node - dense_node_count_ + 1);
    size_t end = s_louds_.NextSetBit(pos + 1);
    while (true) {
      bool marker = end - pos >= 2 && s_labels_[pos] == 0xFF;
      if (level == key.size())
        return marker && Found(dense_value_count_ + SparseValuePos(pos), value);
      size_t p = SearchLabel(pos + (marker ? 1 : 0), end,
                             static_cast<uint8_t>(key[level]));
      if (p == end) return false;
      if (opts_.prefetch) __builtin_prefetch(s_has_child_.data() + p / 64);
      if (!s_has_child_.Get(p))
        return level + 1 == key.size() &&
               Found(dense_value_count_ + SparseValuePos(p), value);
      size_t child = dense_child_count_ +
                     Rank(s_has_child_rank_, s_has_child_poppy_, p);
      pos = SelectLouds(child - dense_node_count_ + 1);
      end = s_louds_.NextSetBit(pos + 1);
      ++level;
    }
  }

  size_t MemoryBytes() const {
    size_t bytes = d_labels_.MemoryBytes() + d_has_child_.MemoryBytes() +
                   d_is_prefix_.MemoryBytes() + s_labels_.capacity() +
                   s_has_child_.MemoryBytes() + s_louds_.MemoryBytes() +
                   values_.capacity() * sizeof(uint64_t);
    if (opts_.fast_rank) {
      bytes += d_labels_rank_.MemoryBytes() + d_has_child_rank_.MemoryBytes() +
               d_is_prefix_rank_.MemoryBytes() +
               s_has_child_rank_.MemoryBytes() + s_louds_rank_.MemoryBytes();
    } else {
      bytes += d_labels_poppy_.MemoryBytes() + d_has_child_poppy_.MemoryBytes() +
               d_is_prefix_poppy_.MemoryBytes() +
               s_has_child_poppy_.MemoryBytes() + s_louds_poppy_.MemoryBytes();
    }
    if (opts_.fast_select) bytes += s_louds_select_.MemoryBytes();
    return bytes;
  }

 private:
  /// Parses an Fst image (fst/fst_serialize.cc) and builds the supports.
  bool Load(std::string_view in, LegacyOptions opts) {
    opts_ = opts;
    size_t at = 0;
    auto u64 = [&](uint64_t* v) {
      if (in.size() - at < 8) return false;
      std::memcpy(v, in.data() + at, 8);
      at += 8;
      return true;
    };
    auto bytes = [&](void* dst, size_t n) {
      if (in.size() - at < n) return false;
      std::memcpy(dst, in.data() + at, n);
      at += n;
      return true;
    };
    auto bitvec = [&](BitVector* bv) {
      uint64_t bits, words;
      if (!u64(&bits) || !u64(&words)) return false;
      std::vector<uint64_t> data(words);
      if (!bytes(data.data(), words * 8)) return false;
      bv->SetRaw(bits, std::move(data));
      return true;
    };
    uint64_t header[11], nlabels, nvalues;
    for (uint64_t& h : header)
      if (!u64(&h)) return false;
    num_leaves_ = header[4];
    dense_levels_ = header[7];
    dense_node_count_ = header[8];
    dense_child_count_ = header[9];
    dense_value_count_ = header[10];
    if (!bitvec(&d_labels_) || !bitvec(&d_has_child_) ||
        !bitvec(&d_is_prefix_) || !u64(&nlabels))
      return false;
    s_labels_.assign(nlabels + 16, 0);  // SIMD slack
    if (!bytes(s_labels_.data(), nlabels) || !bitvec(&s_has_child_) ||
        !bitvec(&s_louds_) || !u64(&nvalues))
      return false;
    values_.resize(nvalues);
    if (!bytes(values_.data(), nvalues * 8)) return false;

    if (opts.fast_rank) {
      d_labels_rank_.Build(&d_labels_, 64);
      d_has_child_rank_.Build(&d_has_child_, 64);
      d_is_prefix_rank_.Build(&d_is_prefix_, 512);
      s_has_child_rank_.Build(&s_has_child_, 512);
      s_louds_rank_.Build(&s_louds_, 512);
    } else {
      d_labels_poppy_.Build(&d_labels_);
      d_has_child_poppy_.Build(&d_has_child_);
      d_is_prefix_poppy_.Build(&d_is_prefix_);
      s_has_child_poppy_.Build(&s_has_child_);
      s_louds_poppy_.Build(&s_louds_);
    }
    if (opts.fast_select && s_louds_.size() > 0)
      s_louds_select_.Build(&s_louds_, 64);
    return true;
  }

  bool Found(size_t leaf, uint64_t* value) const {
    if (value != nullptr && !values_.empty()) *value = values_[leaf];
    return true;
  }

  size_t Rank(const RankSupport& fast, const PoppyRank& slow,
              size_t pos) const {
    return opts_.fast_rank ? fast.Rank1(pos) : slow.Rank1(pos);
  }

  /// Position of the rank-th (1-based) S-LOUDS set bit.
  size_t SelectLouds(size_t rank) const {
    if (opts_.fast_select) return s_louds_select_.Select1(rank);
    size_t lo = 0, hi = s_louds_.size() - 1;
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (Rank(s_louds_rank_, s_louds_poppy_, mid) < rank)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  }

  size_t DenseValuePos(size_t pos) const {
    return Rank(d_labels_rank_, d_labels_poppy_, pos) -
           Rank(d_has_child_rank_, d_has_child_poppy_, pos) +
           Rank(d_is_prefix_rank_, d_is_prefix_poppy_, pos / 256) - 1;
  }

  size_t DensePrefixValuePos(size_t m) const {
    size_t labels = m > 0 ? Rank(d_labels_rank_, d_labels_poppy_, m * 256 - 1) : 0;
    size_t children =
        m > 0 ? Rank(d_has_child_rank_, d_has_child_poppy_, m * 256 - 1) : 0;
    return labels - children + Rank(d_is_prefix_rank_, d_is_prefix_poppy_, m) - 1;
  }

  size_t SparseValuePos(size_t pos) const {
    return pos - Rank(s_has_child_rank_, s_has_child_poppy_, pos);
  }

  size_t SearchLabel(size_t start, size_t end, uint8_t byte) const {
#ifdef MET_USE_SSE2
    if (opts_.simd_label_search && end - start > 8) {
      const __m128i needle = _mm_set1_epi8(static_cast<char>(byte));
      for (size_t i = start; i < end; i += 16) {
        __m128i hay =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(&s_labels_[i]));
        int mask = _mm_movemask_epi8(_mm_cmpeq_epi8(hay, needle));
        size_t chunk = end - i;
        if (chunk < 16) mask &= (1 << chunk) - 1;
        if (mask != 0) return i + __builtin_ctz(mask);
      }
      return end;
    }
#endif
    for (size_t i = start; i < end; ++i)
      if (s_labels_[i] == byte) return i;
    return end;
  }

  LegacyOptions opts_;
  BitVector d_labels_, d_has_child_, d_is_prefix_;
  RankSupport d_labels_rank_, d_has_child_rank_, d_is_prefix_rank_;
  PoppyRank d_labels_poppy_, d_has_child_poppy_, d_is_prefix_poppy_;
  std::vector<uint8_t> s_labels_;
  BitVector s_has_child_, s_louds_;
  RankSupport s_has_child_rank_, s_louds_rank_;
  PoppyRank s_has_child_poppy_, s_louds_poppy_;
  SelectSupport s_louds_select_;
  std::vector<uint64_t> values_;
  size_t num_leaves_ = 0;
  size_t dense_levels_ = 0;
  size_t dense_node_count_ = 0;
  size_t dense_child_count_ = 0;
  size_t dense_value_count_ = 0;
};

}  // namespace met::bench

#endif  // MET_BENCH_LEGACY_LOUDS_H_
