#include "fst/fst.h"

#include <algorithm>

#include "common/assert.h"
#include "fst/fst_step.h"

namespace met {

namespace {

/// Per-level raw trie produced by the single-scan builder, before the
/// dense/sparse split is chosen.
struct LevelData {
  std::vector<uint8_t> labels;
  // One byte per flag: vector<bool>'s bit packing costs more build time
  // than the bytes it saves in this short-lived structure.
  std::vector<uint8_t> has_child;
  std::vector<uint8_t> louds;      // set at first label of each node
  std::vector<uint8_t> is_marker;  // label is the 0xFF prefix-key marker
  std::vector<uint32_t> value_key_index;  // key index per terminating label
  size_t node_count = 0;
};

struct Range {
  uint32_t lo, hi;
};

}  // namespace

void Fst::Build(const std::vector<std::string>& keys,
                const std::vector<uint64_t>& values, const FstConfig& config,
                std::vector<uint32_t>* leaf_key_index,
                std::vector<uint32_t>* leaf_depth) {
  config_ = config;
  num_keys_ = keys.size();
  MET_ASSERT(values.empty() || values.size() == keys.size(),
             "one value per key (or none)");
  MET_DCHECK(std::is_sorted(keys.begin(), keys.end()));

  // ---- Phase 1: build per-level label sequences breadth-first. ----
  std::vector<LevelData> levels;
  std::vector<Range> current;
  if (!keys.empty()) current.push_back({0, static_cast<uint32_t>(keys.size())});
  size_t depth = 0;
  const bool truncate = config.mode == FstConfig::Mode::kMinUniquePrefix;
  while (!current.empty()) {
    levels.emplace_back();
    LevelData& ld = levels.back();
    std::vector<Range> next;
    for (const Range& r : current) {
      ++ld.node_count;
      bool first = true;
      uint32_t lo = r.lo;
      MET_DCHECK(keys[lo].size() >= depth);
      if (keys[lo].size() == depth) {
        // The path to this node is itself a stored key: 0xFF marker.
        ld.labels.push_back(0xFF);
        ld.has_child.push_back(false);
        ld.louds.push_back(true);
        ld.is_marker.push_back(true);
        ld.value_key_index.push_back(lo);
        first = false;
        ++lo;
      }
      uint32_t i = lo;
      while (i < r.hi) {
        uint8_t b = static_cast<uint8_t>(keys[i][depth]);
        uint32_t j = i + 1;
        while (j < r.hi && static_cast<uint8_t>(keys[j][depth]) == b) ++j;
        bool terminal =
            (j - i == 1) && (truncate || keys[i].size() == depth + 1);
        ld.labels.push_back(b);
        ld.has_child.push_back(!terminal);
        ld.louds.push_back(first);
        ld.is_marker.push_back(false);
        first = false;
        if (terminal) {
          ld.value_key_index.push_back(i);
        } else {
          next.push_back({i, j});
        }
        i = j;
      }
    }
    current.swap(next);
    ++depth;
  }
  height_ = levels.size();

  // ---- Phase 2: choose the dense/sparse cutoff (Section 3.4). ----
  std::vector<uint64_t> dense_up_to(height_ + 1, 0), sparse_from(height_ + 1, 0);
  for (size_t l = 1; l <= height_; ++l)
    dense_up_to[l] = dense_up_to[l - 1] + levels[l - 1].node_count * 513;
  for (size_t l = height_; l-- > 0;)
    sparse_from[l] = sparse_from[l + 1] + levels[l].labels.size() * 10;

  size_t cutoff = 0;
  if (config.max_dense_levels >= 0) {
    cutoff = std::min<size_t>(config.max_dense_levels, height_);
  } else {
    for (size_t l = 0; l <= height_; ++l)
      if (dense_up_to[l] * config.size_ratio <= sparse_from[l]) cutoff = l;
  }
  dense_levels_ = cutoff;

  // ---- Phase 3: emit the LOUDS-DS encoding. ----
  d_labels_ = BitVector();
  d_has_child_ = BitVector();
  d_is_prefix_ = BitVector();
  values_.clear();
  level_node_start_.clear();

  num_nodes_ = 0;
  dense_node_count_ = 0;
  dense_child_count_ = 0;

  level_node_start_.reserve(height_ + 2);
  for (size_t l = 0; l < height_; ++l) {
    level_node_start_.push_back(num_nodes_);
    num_nodes_ += levels[l].node_count;
  }
  level_node_start_.push_back(num_nodes_);
  level_node_start_.push_back(num_nodes_);  // sentinel for one level past H

  std::vector<uint32_t> leaf_keys;    // key index per leaf id, level order
  std::vector<uint32_t> leaf_depths;  // stored-prefix length per leaf id

  // Dense levels: one 256-bit D-Labels/D-HasChild pair + one D-IsPrefixKey
  // bit per node. Prefix markers become IsPrefixKey bits, not labels.
  for (size_t l = 0; l < cutoff; ++l) {
    const LevelData& ld = levels[l];
    dense_node_count_ += ld.node_count;
    size_t vi = 0;  // cursor into value_key_index
    size_t li = 0;
    while (li < ld.labels.size()) {
      MET_DCHECK(ld.louds[li]);
      size_t bm_base = d_labels_.size();
      d_labels_.Extend(256);
      d_has_child_.Extend(256);
      bool prefix_key = false;
      do {
        if (ld.is_marker[li]) {
          prefix_key = true;
          leaf_keys.push_back(ld.value_key_index[vi++]);
          leaf_depths.push_back(static_cast<uint32_t>(l));
        } else {
          d_labels_.Set(bm_base + ld.labels[li]);
          if (ld.has_child[li]) {
            d_has_child_.Set(bm_base + ld.labels[li]);
            ++dense_child_count_;
          } else {
            leaf_keys.push_back(ld.value_key_index[vi++]);
            leaf_depths.push_back(static_cast<uint32_t>(l + 1));
          }
        }
        ++li;
      } while (li < ld.labels.size() && !ld.louds[li]);
      d_is_prefix_.PushBack(prefix_key);
    }
    MET_DCHECK(vi == ld.value_key_index.size());
  }
  dense_value_count_ = leaf_keys.size();

  // Sparse levels: byte/bit sequences in level order; markers stay as 0xFF.
  SparseSequences flat;
  for (size_t l = cutoff; l < height_; ++l) {
    const LevelData& ld = levels[l];
    size_t vi = 0;
    for (size_t li = 0; li < ld.labels.size(); ++li) {
      flat.labels.push_back(ld.labels[li]);
      flat.has_child.PushBack(ld.has_child[li]);
      flat.louds.PushBack(ld.louds[li]);
      if (!ld.has_child[li]) {
        leaf_keys.push_back(ld.value_key_index[vi++]);
        leaf_depths.push_back(
            static_cast<uint32_t>(ld.is_marker[li] ? l : l + 1));
      }
    }
    MET_DCHECK(vi == ld.value_key_index.size());
  }
  if (config.store_values && !values.empty()) {
    values_.resize(leaf_keys.size());
    for (size_t i = 0; i < leaf_keys.size(); ++i)
      values_[i] = values[leaf_keys[i]];
  }
  if (leaf_key_index != nullptr) *leaf_key_index = leaf_keys;
  if (leaf_depth != nullptr) *leaf_depth = std::move(leaf_depths);
  num_leaves_ = leaf_keys.size();

  // ---- Phase 4: rank tables, sparse blocks and child pointers. ----
  BuildDenseRank();
  BuildSparse(flat);
}

void Fst::BuildDenseRank() {
  d_labels_rank_.Build(&d_labels_, 64);
  d_has_child_rank_.Build(&d_has_child_, 64);
  d_is_prefix_rank_.Build(&d_is_prefix_, 512);
}

void Fst::BuildSparse(const SparseSequences& flat) {
  constexpr size_t kL = SparseBlock::kLabels;
  num_s_labels_ = flat.labels.size();
  blocks_ = {};
  dense_child_pos_ = {};
  level_pos_start_ = {};
  if (num_nodes_ == 0) return;
  MET_ASSERT(num_s_labels_ < (size_t{1} << 32) - 2,
             "sparse positions must fit the blocks' 32-bit child pointers");

  // Labels and bits, plus S-LOUDS bits at num_s_labels_ and one past it:
  // an empty terminator node that bounds every forward scan.
  blocks_.assign((num_s_labels_ + 1) / kL + 1, SparseBlock{});
  // Bits [pos, pos + 64) of `bv`, zero past its size.
  auto bits_at = [](const BitVector& bv, size_t pos) -> uint64_t {
    if (pos >= bv.size()) return 0;
    size_t w = pos / 64, o = pos % 64;
    uint64_t bits = bv.data()[w] >> o;
    if (o != 0 && w + 1 < bv.num_words()) bits |= bv.data()[w + 1] << (64 - o);
    size_t valid = bv.size() - pos;
    return valid < 64 ? bits & ((uint64_t{1} << valid) - 1) : bits;
  };
  for (size_t b = 0; b < blocks_.size(); ++b) {
    SparseBlock& blk = blocks_[b];
    const size_t pos = b * kL;
    if (pos < num_s_labels_)
      std::copy_n(flat.labels.data() + pos, std::min(kL, num_s_labels_ - pos),
                  blk.labels);
    blk.has_child_lo = bits_at(flat.has_child, pos);
    blk.has_child_hi = static_cast<uint32_t>(bits_at(flat.has_child, pos + 64));
    blk.louds_lo = bits_at(flat.louds, pos);
    blk.louds_hi = static_cast<uint32_t>(bits_at(flat.louds, pos + 64));
  }
  for (size_t i = num_s_labels_; i <= num_s_labels_ + 1; ++i) {
    SparseBlock& blk = blocks_[i / kL];
    size_t o = i % kL;
    if (o < 64)
      blk.louds_lo |= uint64_t{1} << o;
    else
      blk.louds_hi |= uint32_t{1} << (o - 64);
  }

  // Sparse node number -> start position, for nondecreasing node numbers
  // (the terminator is node number sparse_nodes).
  size_t cur_node = 0, cur_pos = 0, end = 0;
  auto start_of = [&](size_t node) {
    cur_pos = ResolveNode(cur_pos, node - cur_node, &end);
    cur_node = node;
    return cur_pos;
  };
  // The sparse nodes numbered below `first_sparse_child` are children of
  // dense labels (or the root); the child of the sparse has-child label with
  // rank r (0-based) is node first_sparse_child + r.
  const size_t first_sparse_child = dense_child_count_ + 1 - dense_node_count_;
  dense_child_pos_.resize(first_sparse_child + 1);
  for (size_t n = 0; n <= first_sparse_child; ++n)
    dense_child_pos_[n] = static_cast<uint32_t>(start_of(n));

  uint32_t rank = 0;
  for (SparseBlock& b : blocks_) {
    b.rank = rank;
    b.child_pos = static_cast<uint32_t>(start_of(first_sparse_child + rank));
    rank += static_cast<uint32_t>(PopCount(b.has_child_lo) +
                                  PopCount(b.has_child_hi));
  }

  cur_node = cur_pos = 0;
  level_pos_start_.assign(level_node_start_.size(), 0);
  for (size_t l = dense_levels_; l < level_pos_start_.size(); ++l)
    level_pos_start_[l] = start_of(level_node_start_[l] - dense_node_count_);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

size_t Fst::DenseValuePos(size_t pos) const {
  return DenseRankLabels(pos) - DenseRankHasChild(pos) +
         d_is_prefix_rank_.Rank1(pos / 256) - 1;
}

size_t Fst::DensePrefixValuePos(size_t m) const {
  size_t labels_before = m > 0 ? DenseRankLabels(m * 256 - 1) : 0;
  size_t children_before = m > 0 ? DenseRankHasChild(m * 256 - 1) : 0;
  return labels_before - children_before + d_is_prefix_rank_.Rank1(m) - 1;
}

Fst::SparseSequences Fst::FlattenSparse() const {
  SparseSequences flat{std::vector<uint8_t>(num_s_labels_),
                       BitVector(num_s_labels_), BitVector(num_s_labels_)};
  for (size_t i = 0; i < num_s_labels_; ++i) {
    flat.labels[i] = SparseLabel(i);
    if (SparseHasChild(i)) flat.has_child.Set(i);
    if (SparseLouds(i)) flat.louds.Set(i);
  }
  return flat;
}

// ---------------------------------------------------------------------------
// Point lookup (Algorithm 1)
// ---------------------------------------------------------------------------

Fst::PathResult Fst::LookupPath(std::string_view key) const {
  PathResult res;
  if (num_leaves_ == 0) return res;
  Cursor c;
  while (c.level < dense_levels_)
    if (!DenseStep(key, &c, &res)) return res;
  while (SparseStep(key, &c, &res)) {
  }
  return res;
}

bool Fst::Lookup(std::string_view key, uint64_t* value) const {
  PathResult res = LookupPath(key);
  if (!res.found) return false;
  // In full-key mode a terminal at depth d means the stored key has exactly
  // d bytes; reject lookups of longer keys that merely pass through.
  if (config_.mode == FstConfig::Mode::kFullKey && res.depth != key.size())
    return false;
  if (value != nullptr && !values_.empty()) *value = values_[res.leaf_id];
  return true;
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

void Fst::Iterator::ComputeLeafId() {
  const LevelCursor& top = stack_.back();
  if (top.dense) {
    leaf_id_ = at_prefix_
                   ? static_cast<uint32_t>(fst_->DensePrefixValuePos(top.pos / 256))
                   : static_cast<uint32_t>(fst_->DenseValuePos(top.pos));
  } else {
    leaf_id_ = static_cast<uint32_t>(fst_->dense_value_count_ +
                                     fst_->SparseValuePos(top.pos));
  }
}

size_t Fst::ChildOf(size_t pos, bool pos_dense, bool* dense) const {
  if (!pos_dense) {
    *dense = false;
    return SparseChildPos(pos);
  }
  size_t child = DenseRankHasChild(pos);
  *dense = child < dense_node_count_;
  return *dense ? child : dense_child_pos_[child - dense_node_count_];
}

void Fst::DescendToMin(Iterator* it, size_t node, bool dense) const {
  while (true) {
    size_t pos;
    bool has_child;
    if (dense) {
      size_t m = node;
      if (d_is_prefix_.Get(m)) {
        it->stack_.push_back({static_cast<uint32_t>(m * 256), true});
        it->at_prefix_ = true;
        it->ComputeLeafId();
        return;
      }
      pos = d_labels_.NextSetBit(m * 256);
      MET_DCHECK(pos < (m + 1) * 256);
      it->stack_.push_back({static_cast<uint32_t>(pos), true});
      it->key_.push_back(static_cast<char>(pos % 256));
      has_child = d_has_child_.Get(pos);
    } else {
      pos = node;
      it->stack_.push_back({static_cast<uint32_t>(pos), false});
      if (SparseHasMarker(pos, SparseNodeEnd(pos))) {
        it->at_prefix_ = true;
        it->ComputeLeafId();
        return;
      }
      it->key_.push_back(static_cast<char>(SparseLabel(pos)));
      has_child = SparseHasChild(pos);
    }
    if (!has_child) {
      it->at_prefix_ = false;
      it->ComputeLeafId();
      return;
    }
    node = ChildOf(pos, dense, &dense);
  }
}

/// Advances the top cursor to the next label within its node. Returns false
/// if the node is exhausted. Fixes the trailing key byte.
bool Fst::AdvanceCursor(Iterator* it) const {
  Iterator::LevelCursor& top = it->stack_.back();
  if (top.dense) {
    size_t node_end = (top.pos / 256 + 1) * 256;
    size_t next = d_labels_.NextSetBit(top.pos + 1);
    if (next >= node_end) return false;
    top.pos = static_cast<uint32_t>(next);
    it->key_.back() = static_cast<char>(next % 256);
    return true;
  }
  size_t next = top.pos + 1;
  if (SparseLouds(next)) return false;  // next node, or the terminator
  top.pos = static_cast<uint32_t>(next);
  it->key_.back() = static_cast<char>(SparseLabel(next));
  return true;
}

/// After the top cursor moved onto a (possibly new) label: descend if it has
/// a child, otherwise it is the new leaf.
void Fst::CursorDescendOrLeaf(Iterator* it) const {
  const Iterator::LevelCursor& top = it->stack_.back();
  bool has_child =
      top.dense ? d_has_child_.Get(top.pos) : SparseHasChild(top.pos);
  if (!has_child) {
    it->at_prefix_ = false;
    it->ComputeLeafId();
    return;
  }
  bool dense;
  size_t child = ChildOf(top.pos, top.dense, &dense);
  DescendToMin(it, child, dense);
}

void Fst::Iterator::Next() {
  if (!valid_) return;
  const Fst* f = fst_;
  if (at_prefix_) {
    // Move from the node's prefix-key to its first real label.
    LevelCursor& top = stack_.back();
    at_prefix_ = false;
    if (top.dense) {
      size_t m = top.pos / 256;
      size_t pos = f->d_labels_.NextSetBit(m * 256);
      MET_DCHECK(pos < (m + 1) * 256);
      top.pos = static_cast<uint32_t>(pos);
      key_.push_back(static_cast<char>(pos % 256));
    } else {
      top.pos += 1;  // marker is at node start; a real label follows
      key_.push_back(static_cast<char>(f->SparseLabel(top.pos)));
    }
    f->CursorDescendOrLeaf(this);
    return;
  }
  while (!stack_.empty()) {
    if (f->AdvanceCursor(this)) {
      f->CursorDescendOrLeaf(this);
      return;
    }
    stack_.pop_back();
    key_.pop_back();
  }
  valid_ = false;
}

Fst::Iterator Fst::Begin() const {
  Iterator it;
  it.fst_ = this;
  if (num_leaves_ == 0) return it;
  it.valid_ = true;
  DescendToMin(&it, 0, dense_levels_ > 0);  // the root is 0 either way
  return it;
}

Fst::Iterator Fst::LowerBound(std::string_view key, bool* fp_flag) const {
  if (fp_flag != nullptr) *fp_flag = false;
  Iterator it;
  it.fst_ = this;
  if (num_leaves_ == 0) return it;
  it.valid_ = true;

  // Node: a dense node number while level < dense_levels_, else a sparse
  // start position. The root is 0 either way.
  size_t node = 0;
  size_t level = 0;
  while (true) {
    const bool dense = level < dense_levels_;
    if (level == key.size()) {
      DescendToMin(&it, node, dense);
      return it;
    }
    const uint8_t b = static_cast<uint8_t>(key[level]);
    size_t p, end;
    if (dense) {
      p = node * 256 + b;
      end = (node + 1) * 256;
      if (!d_labels_.Get(p)) p = d_labels_.NextSetBit(p + 1);
    } else {
      end = SparseNodeEnd(node);
      // Real labels are sorted ascending in [node + marker, end).
      p = node + (SparseHasMarker(node, end) ? 1 : 0);
      while (p < end && SparseLabel(p) < b) ++p;
    }
    if (p >= end) {  // every label is < b: the answer is past this node
      AdvanceUp(&it);
      return it;
    }
    const uint8_t label = dense ? static_cast<uint8_t>(p % 256) : SparseLabel(p);
    it.stack_.push_back({static_cast<uint32_t>(p), dense});
    it.key_.push_back(static_cast<char>(label));
    if (label != b) {  // label > b: everything below is > key
      CursorDescendOrLeaf(&it);
      return it;
    }
    if (dense ? d_has_child_.Get(p) : SparseHasChild(p)) {
      bool child_dense;
      node = ChildOf(p, dense, &child_dense);
      ++level;
      continue;
    }
    // Terminal: stored path == key[0..level+1).
    it.at_prefix_ = false;
    it.ComputeLeafId();
    if (level + 1 < key.size()) {  // the stored path is a strict prefix
      if (fp_flag != nullptr)
        *fp_flag = true;
      else
        it.Next();  // index semantics: path < key, skip
    }
    return it;
  }
}

void Fst::AdvanceUp(Iterator* it) const {
  while (!it->stack_.empty()) {
    if (AdvanceCursor(it)) {
      CursorDescendOrLeaf(it);
      return;
    }
    it->stack_.pop_back();
    it->key_.pop_back();
  }
  it->valid_ = false;
}

// ---------------------------------------------------------------------------
// CountRange
// ---------------------------------------------------------------------------
//
// Counts are computed per the thesis: extend per-level frontiers for both
// boundary keys and take rank differences of the value sequences, so a count
// costs O(height) rank operations rather than an O(result) scan.

uint64_t Fst::CountDenseLevelBefore(size_t l, uint64_t pos, bool include_marker,
                                    bool include_pos_value) const {
  uint64_t level_start = level_node_start_[l] * 256;
  uint64_t m = pos / 256;
  // Rank-based label/child counts within [level_start, pos).
  auto rank_labels = [&](uint64_t p) -> uint64_t {
    return p == 0 ? 0 : DenseRankLabels(p - 1);
  };
  auto rank_children = [&](uint64_t p) -> uint64_t {
    return p == 0 ? 0 : DenseRankHasChild(p - 1);
  };
  uint64_t labels_before = rank_labels(pos) - rank_labels(level_start);
  uint64_t children_before = rank_children(pos) - rank_children(level_start);
  // Markers among nodes < node_count.
  auto rank_prefix = [&](uint64_t node_count) -> uint64_t {
    return node_count == 0 ? 0 : d_is_prefix_rank_.Rank1(node_count - 1);
  };
  uint64_t markers = rank_prefix(m) - rank_prefix(level_node_start_[l]);
  if (include_marker && m < dense_node_count_ && d_is_prefix_.Get(m)) ++markers;
  return labels_before - children_before + markers +
         (include_pos_value ? 1 : 0);
}

uint64_t Fst::CountSparseLevelBefore(size_t l, uint64_t pos,
                                     bool include_pos_value) const {
  uint64_t level_start = level_pos_start_[l];
  uint64_t labels_before = pos - level_start;
  uint64_t children_before =
      SparseHasChildBefore(pos) - SparseHasChildBefore(level_start);
  return labels_before - children_before + (include_pos_value ? 1 : 0);
}

void Fst::ComputeFrontier(std::string_view key,
                          std::vector<uint64_t>* counts) const {
  counts->assign(height_, 0);
  if (num_leaves_ == 0) return;

  // Node: a dense node number while level < dense_levels_, else a sparse
  // start position (the root is 0 either way). The descent stops at
  // `stop_pos`, a dense bit position or a sparse label position.
  size_t node = 0;
  size_t level = 0;
  uint64_t stop_pos = 0;
  while (true) {
    const bool dense = level < dense_levels_;
    auto count_before = [&](uint64_t pos, bool include_marker,
                            bool include_pos_value) {
      (*counts)[level] =
          dense ? CountDenseLevelBefore(level, pos, include_marker,
                                        include_pos_value)
                : CountSparseLevelBefore(level, pos, include_pos_value);
    };
    if (level == key.size()) {
      // Everything in this subtree (marker included) sorts >= key.
      stop_pos = dense ? node * 256 : node;
      count_before(stop_pos, false, false);
      break;
    }
    const uint8_t b = static_cast<uint8_t>(key[level]);
    uint64_t p;
    bool match, has_child;
    if (dense) {
      p = node * 256 + b;
      match = d_labels_.Get(p);
      has_child = match && d_has_child_.Get(p);
    } else {
      size_t end = SparseNodeEnd(node);
      p = node + (SparseHasMarker(node, end) ? 1 : 0);
      while (p < end && SparseLabel(p) < b) ++p;
      match = p < end && SparseLabel(p) == b;
      has_child = match && SparseHasChild(p);
    }
    stop_pos = p;
    if (!has_child) {
      // A terminal whose path is a strict prefix of key sorts before it.
      count_before(p, true, match && level + 1 < key.size());
      break;
    }
    count_before(p, true, false);
    bool child_dense;
    node = ChildOf(p, dense, &child_dense);
    ++level;
  }

  // Extend the frontier to deeper levels: the next subtree boundary is the
  // child of the first has-child branch at-or-after the stop position,
  // clamped to the level bounds.
  uint64_t q = stop_pos;
  for (size_t l = level; l + 1 < height_; ++l) {
    if (l < dense_levels_) {
      uint64_t child_node = (q == 0 ? 0 : DenseRankHasChild(q - 1)) + 1;
      child_node = std::min<uint64_t>(child_node, level_node_start_[l + 2]);
      // A clamped boundary node may itself live past the dense/sparse split.
      if (l + 1 < dense_levels_) {
        q = child_node * 256;
        (*counts)[l + 1] = CountDenseLevelBefore(l + 1, q, false, false);
        continue;
      }
      q = dense_child_pos_[child_node - dense_node_count_];
    } else {
      q = std::min<uint64_t>(SparseChildPos(q), level_pos_start_[l + 2]);
    }
    (*counts)[l + 1] = CountSparseLevelBefore(l + 1, q, false);
  }
}

uint64_t Fst::CountRange(std::string_view low_key,
                         std::string_view high_key) const {
  if (num_leaves_ == 0 || high_key <= low_key) return 0;
  std::vector<uint64_t> clo, chi;
  ComputeFrontier(low_key, &clo);
  ComputeFrontier(high_key, &chi);
  uint64_t lo = 0, hi = 0;
  for (size_t l = 0; l < height_; ++l) {
    lo += clo[l];
    hi += chi[l];
  }
  return hi > lo ? hi - lo : 0;
}

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------

size_t Fst::FilterMemoryBytes() const {
  return FilterBreakdown().TotalBytes();
}

size_t Fst::MemoryBytes() const {
  return FilterMemoryBytes() + values_.capacity() * sizeof(uint64_t);
}

MemoryBreakdown Fst::FilterBreakdown() const {
  MemoryBreakdown b("fst_filter");
  MemoryBreakdown& dense = b.Add("louds_dense");
  dense.Add("labels", d_labels_.MemoryBytes());
  dense.Add("has_child", d_has_child_.MemoryBytes());
  dense.Add("is_prefix", d_is_prefix_.MemoryBytes());
  dense.Add("rank", d_labels_rank_.MemoryBytes() +
                        d_has_child_rank_.MemoryBytes() +
                        d_is_prefix_rank_.MemoryBytes());
  dense.Add("sparse_child_pos", dense_child_pos_.capacity() * sizeof(uint32_t));
  // Each block field's share of the block array (capacity, in whole blocks).
  const size_t blocks = blocks_.capacity();
  MemoryBreakdown& sparse = b.Add("louds_sparse");
  sparse.Add("labels", blocks * SparseBlock::kLabels);
  sparse.Add("has_child", blocks * SparseBlock::kLabels / 8);
  sparse.Add("louds", blocks * SparseBlock::kLabels / 8);
  sparse.Add("rank", blocks * sizeof(uint32_t));
  sparse.Add("child_pos", blocks * sizeof(uint32_t));
  b.Add("level_starts", (level_node_start_.capacity() +
                         level_pos_start_.capacity()) * sizeof(uint64_t));
  return b;
}

MemoryBreakdown Fst::Breakdown() const {
  MemoryBreakdown b = FilterBreakdown();
  b.set_name("fst");
  b.Add("values", values_.capacity() * sizeof(uint64_t));
  return b;
}

}  // namespace met
