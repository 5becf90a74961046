// The per-level descent step of Fst lookups, shared by the scalar path
// (fst.cc) and the batched pipeline (fst_batch.cc), plus the LOUDS-Sparse
// block primitives it is built from. Internal to src/fst: include only from
// the Fst implementation files.
#ifndef MET_FST_FST_STEP_H_
#define MET_FST_FST_STEP_H_

#include <algorithm>

#include "common/bits.h"
#include "common/prefetch.h"
#include "fst/fst.h"

#ifdef MET_USE_SSE2
#include <emmintrin.h>
#endif

namespace met {
namespace fst_internal {

/// A block's 96-bit S-HasChild or S-LOUDS word.
using Bits96 = unsigned __int128;

inline Bits96 Join(uint64_t lo, uint32_t hi) {
  return lo | (static_cast<Bits96>(hi) << 64);
}

/// Bits [0, n) set; n <= 96.
inline Bits96 LowMask(size_t n) { return (static_cast<Bits96>(1) << n) - 1; }

inline size_t PopCount96(Bits96 x) {
  return PopCount(static_cast<uint64_t>(x)) +
         PopCount(static_cast<uint64_t>(x >> 64));
}

/// Lowest set bit; x != 0.
inline size_t Ctz96(Bits96 x) {
  uint64_t lo = static_cast<uint64_t>(x);
  return lo != 0 ? CountTrailingZeros(lo)
                 : 64 + CountTrailingZeros(static_cast<uint64_t>(x >> 64));
}

/// Position of the r-th (0-based) set bit; PopCount96(x) > r.
inline size_t Select96(Bits96 x, size_t r) {
  uint64_t lo = static_cast<uint64_t>(x);
  size_t c = PopCount(lo);
  if (r < c) return SelectInWord(lo, static_cast<int>(r));
  return 64 + SelectInWord(static_cast<uint64_t>(x >> 64),
                           static_cast<int>(r - c));
}

}  // namespace fst_internal

inline bool Fst::SparseHasChild(size_t pos) const {
  const SparseBlock& b = BlockOf(pos);
  size_t o = pos % SparseBlock::kLabels;
  return (fst_internal::Join(b.has_child_lo, b.has_child_hi) >> o) & 1;
}

inline bool Fst::SparseLouds(size_t pos) const {
  const SparseBlock& b = BlockOf(pos);
  size_t o = pos % SparseBlock::kLabels;
  return (fst_internal::Join(b.louds_lo, b.louds_hi) >> o) & 1;
}

inline size_t Fst::SparseHasChildBefore(size_t pos) const {
  using namespace fst_internal;
  const SparseBlock& b = BlockOf(pos);
  return b.rank + PopCount96(Join(b.has_child_lo, b.has_child_hi) &
                             LowMask(pos % SparseBlock::kLabels));
}

inline size_t Fst::ResolveNode(size_t base, size_t skip, size_t* end) const {
  using namespace fst_internal;
  constexpr size_t kL = SparseBlock::kLabels;
  size_t bi = base / kL;
  const SparseBlock* b = &blocks_[bi];
  Bits96 starts = Join(b->louds_lo, b->louds_hi) & ~LowMask(base % kL);
  for (size_t n = PopCount96(starts); n <= skip; n = PopCount96(starts)) {
    skip -= n;
    b = &blocks_[++bi];
    starts = Join(b->louds_lo, b->louds_hi);
  }
  size_t o = Select96(starts, skip);
  Bits96 after = starts & ~LowMask(o + 1);
  size_t ei = bi;
  while (after == 0) {  // the terminator bit bounds this scan
    const SparseBlock& e = blocks_[++ei];
    after = Join(e.louds_lo, e.louds_hi);
  }
  *end = ei * kL + Ctz96(after);
  return bi * kL + o;
}

inline size_t Fst::SparseChildPos(size_t pos) const {
  using namespace fst_internal;
  const SparseBlock& b = BlockOf(pos);
  size_t skip = PopCount96(Join(b.has_child_lo, b.has_child_hi) &
                           LowMask(pos % SparseBlock::kLabels));
  size_t end = 0;
  return ResolveNode(b.child_pos, skip, &end);
}

inline size_t Fst::SearchLabel(size_t start, size_t end, uint8_t byte) const {
  constexpr size_t kL = SparseBlock::kLabels;
  while (start < end) {
    const SparseBlock& b = BlockOf(start);
    size_t o = start % kL;
    size_t stop = std::min(kL, o + (end - start));  // in-block end
#ifdef MET_USE_SSE2
    // A 16-byte load at any label offset stays inside the 128-byte block
    // (labels come first; offset <= 95 reads up to byte 110), so it reads
    // the block's object bytes; bytes past `stop` are masked off.
    const char* bytes = reinterpret_cast<const char*>(&b);
    const __m128i needle = _mm_set1_epi8(static_cast<char>(byte));
    for (size_t i = o; i < stop; i += 16) {
      __m128i hay =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + i));
      unsigned mask = static_cast<unsigned>(
          _mm_movemask_epi8(_mm_cmpeq_epi8(hay, needle)));
      if (stop - i < 16) mask &= (1u << (stop - i)) - 1;
      if (mask != 0) return start - o + i + CountTrailingZeros(mask);
    }
#else
    for (size_t i = o; i < stop; ++i)
      if (b.labels[i] == byte) return start - o + i;
#endif
    start += stop - o;
  }
  return end;
}

inline bool Fst::DenseStep(std::string_view key, Cursor* c,
                           PathResult* res) const {
  const size_t m = c->node;
  if (c->level == key.size()) {
    if (d_is_prefix_.Get(m)) {
      res->found = true;
      res->leaf_id = static_cast<uint32_t>(DensePrefixValuePos(m));
      res->depth = static_cast<uint32_t>(c->level);
      res->is_prefix_leaf = true;
    }
    return false;
  }
  size_t pos = m * 256 + static_cast<uint8_t>(key[c->level]);
  if (!d_labels_.Get(pos)) return false;
  if (!d_has_child_.Get(pos)) {
    res->found = true;
    res->leaf_id = static_cast<uint32_t>(DenseValuePos(pos));
    res->depth = static_cast<uint32_t>(c->level + 1);
    return false;
  }
  size_t child = DenseRankHasChild(pos);
  ++c->level;
  if (child < dense_node_count_) {
    c->node = child;
  } else {
    c->node = dense_child_pos_[child - dense_node_count_];
    c->skip = 0;
  }
  return true;
}

inline void Fst::PrefetchSparseNode(size_t base, size_t skip) const {
  const char* first = reinterpret_cast<const char*>(&BlockOf(base));
  const char* last = reinterpret_cast<const char*>(&BlockOf(base + skip));
  // A block the scan only passes through contributes its LOUDS bits, which
  // live in its second line.
  if (first != last) PrefetchRead(first + 64);
  PrefetchRead(last);
  PrefetchRead(last + 64);
}

inline bool Fst::SparseStep(std::string_view key, Cursor* c,
                            PathResult* res) const {
  using namespace fst_internal;
  PrefetchSparseNode(c->node, c->skip);
  size_t end = 0;
  const size_t pos = ResolveNode(c->node, c->skip, &end);
  const bool marker = SparseHasMarker(pos, end);
  if (c->level == key.size()) {
    if (marker) {
      res->found = true;
      res->leaf_id =
          static_cast<uint32_t>(dense_value_count_ + SparseValuePos(pos));
      res->depth = static_cast<uint32_t>(c->level);
      res->is_prefix_leaf = true;
    }
    return false;
  }
  size_t p = SearchLabel(pos + (marker ? 1 : 0), end,
                         static_cast<uint8_t>(key[c->level]));
  if (p == end) return false;
  const SparseBlock& b = BlockOf(p);
  const size_t o = p % SparseBlock::kLabels;
  const Bits96 has_child = Join(b.has_child_lo, b.has_child_hi);
  const size_t before = PopCount96(has_child & LowMask(o));
  if (((has_child >> o) & 1) == 0) {
    res->found = true;
    res->leaf_id = static_cast<uint32_t>(dense_value_count_ + p - b.rank -
                                         before);
    res->depth = static_cast<uint32_t>(c->level + 1);
    return false;
  }
  c->node = b.child_pos;
  c->skip = before;
  ++c->level;
  return true;
}

inline bool Fst::Step(std::string_view key, Cursor* c, PathResult* res) const {
  return c->level < dense_levels_ ? DenseStep(key, c, res)
                                  : SparseStep(key, c, res);
}

inline void Fst::PrefetchStep(std::string_view key, const Cursor& c) const {
  if (c.level < dense_levels_) {
    if (c.level == key.size()) {
      PrefetchRead(d_is_prefix_.data() + c.node / 64);
      return;
    }
    size_t pos = c.node * 256 + static_cast<uint8_t>(key[c.level]);
    PrefetchRead(d_labels_.data() + pos / 64);
    PrefetchRead(d_has_child_.data() + pos / 64);
    d_labels_rank_.PrefetchRank1(pos);
    d_has_child_rank_.PrefetchRank1(pos);
    return;
  }
  PrefetchSparseNode(c.node, c.skip);
}

}  // namespace met

#endif  // MET_FST_FST_STEP_H_
