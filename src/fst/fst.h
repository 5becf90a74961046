// Fast Succinct Trie (Chapter 3): a static trie encoded with LOUDS-DS —
// LOUDS-Dense (bitmap-per-node) for the hot upper levels and LOUDS-Sparse
// for the lower levels.
//
// The encoding follows the thesis:
//  * LOUDS-Dense per node: 256-bit D-Labels, 256-bit D-HasChild, 1-bit
//    D-IsPrefixKey; values for terminating branches in level order.
//  * LOUDS-Sparse per label: S-Labels byte, S-HasChild bit, S-LOUDS bit
//    (set at node starts). A key that is a proper prefix of another key is
//    represented by the special 0xFF label at the start of its node.
//
// LOUDS-Sparse is stored as one array of 128-byte, cache-line-aligned
// blocks rather than three parallel sequences with separate rank and select
// tables. A block holds 96 consecutive labels, their S-HasChild and S-LOUDS
// bits, the S-HasChild rank at the block start, and the start position of
// the child node of the first has-child label at or after the block start
// (10.67 bits per label, everything included). One sparse descent step
// reads the block holding the node for the label search, the has-child test
// and the value rank, then reaches the child by skipping fewer than 96 node
// starts forward from the block's child pointer: the scan usually ends in
// the block the next step reads anyway, so a step costs about one miss. The
// dense-to-sparse handoff uses a per-child start array, so no lookup touches
// a select table.
#ifndef MET_FST_FST_H_
#define MET_FST_FST_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "bitvec/bitvector.h"
#include "bitvec/rank.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "common/index_api.h"

namespace met {

struct FstConfig {
  /// kFullKey stores every byte of every key (a 100%-accurate index).
  /// kMinUniquePrefix truncates each key one byte past its distinguishing
  /// prefix (the SuRF-Base representation, Section 4.1.1).
  enum class Mode { kFullKey, kMinUniquePrefix };

  Mode mode = Mode::kFullKey;

  /// Size ratio R between LOUDS-Sparse and LOUDS-Dense (Section 3.4): the
  /// cutoff is the largest level l with DenseSize(l) * R <= SparseSize(l).
  double size_ratio = 64.0;

  /// -1: choose dense levels automatically via size_ratio. 0: sparse-only.
  /// k>0: force exactly min(k, height) dense levels.
  int max_dense_levels = -1;

  /// Store a 64-bit value per key. SuRF disables this and keeps its own
  /// per-leaf suffix arrays addressed by leaf id.
  bool store_values = true;
};

class Fst {
 public:
  Fst() = default;

  Fst(const Fst&) = delete;
  Fst& operator=(const Fst&) = delete;
  Fst(Fst&&) = default;
  Fst& operator=(Fst&&) = default;

  /// Builds from sorted, unique keys. `values[i]` is stored for keys[i] when
  /// config.store_values is true. If `leaf_key_index` is non-null it
  /// receives, for every leaf id, the index of the key that produced it
  /// (used by SuRF to extract suffix bits).
  void Build(const std::vector<std::string>& keys,
             const std::vector<uint64_t>& values, const FstConfig& config = {},
             std::vector<uint32_t>* leaf_key_index = nullptr,
             std::vector<uint32_t>* leaf_depth = nullptr);

  /// Result of a point lookup at trie granularity.
  struct PathResult {
    bool found = false;
    uint32_t leaf_id = 0;   // index into values / suffix arrays
    uint32_t depth = 0;     // number of key bytes consumed by the path
    bool is_prefix_leaf = false;  // terminated at a prefix-key marker
  };

  /// Exact search down the trie. In kFullKey mode `found` implies the key is
  /// stored. In kMinUniquePrefix mode `found` means the key's path reached a
  /// stored (possibly truncated) leaf — SuRF layers suffix checks on top.
  PathResult LookupPath(std::string_view key) const;

  /// Unified point lookup (met::ReadOnlyPointIndex): true iff the key is
  /// stored (full-key mode rejects longer keys that merely pass through a
  /// terminal); writes the stored value.
  bool Lookup(std::string_view key, uint64_t* value = nullptr) const;

  /// Batched LookupPath (the met::batch pipeline, impl in fst_batch.cc):
  /// runs up to 16 keys at a time as interleaved state machines, issuing a
  /// software prefetch for the lines each probe's *next* descent step will
  /// touch (dense bitmap words + rank LUT entries, or the sparse block the
  /// child scan starts in). Each round runs the same per-level step as
  /// LookupPath, so out[i] is identical to LookupPath(keys[i]) — asserted in
  /// checked builds.
  void LookupPathBatch(const std::string_view* keys, size_t n,
                       PathResult* out) const;

  /// Batched Lookup: LookupPathBatch plus the full-key depth filter and a
  /// prefetched value-array gather. out[i] matches Lookup(keys[i]).
  void LookupBatch(const std::string_view* keys, size_t n,
                   LookupResult* out) const;

  uint64_t ValueAt(uint32_t leaf_id) const { return values_[leaf_id]; }

  /// Iterator with per-level cursors (Section 3.4). Traverses leaves in key
  /// order; key() returns the stored path (truncated key in SuRF mode).
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const { return valid_; }
    /// The stored path of the current leaf.
    const std::string& key() const { return key_; }
    uint32_t leaf_id() const { return leaf_id_; }
    uint64_t value() const { return fst_->ValueAt(leaf_id_); }
    /// True if this leaf is a prefix-key (its path is a stored key that is a
    /// proper prefix of other stored keys).
    bool IsPrefixLeaf() const { return at_prefix_; }

    void Next();

   private:
    friend class Fst;

    struct LevelCursor {
      uint32_t pos;    // dense: absolute bit pos (node*256+byte); sparse: label index
      bool dense;
    };

    const Fst* fst_ = nullptr;
    bool valid_ = false;
    bool at_prefix_ = false;  // leaf is a prefix-key (dense bit or 0xFF marker)
    uint32_t leaf_id_ = 0;
    std::vector<LevelCursor> stack_;
    std::string key_;

    void ComputeLeafId();
  };

  /// Iterator at the first leaf whose path is >= `key` under the convention
  /// that a stored path which is a strict prefix of `key` compares as a
  /// match candidate: the iterator stops there and sets *fp_flag (SuRF's
  /// moveToNext semantics, Section 4.1.5). Pass fp_flag = nullptr for strict
  /// index semantics (such a leaf is skipped).
  Iterator LowerBound(std::string_view key, bool* fp_flag = nullptr) const;

  /// Iterator at the smallest leaf.
  Iterator Begin() const;

  /// Number of leaves whose path lies in [low_key, high_key), computed with
  /// per-level rank differences (may over-count by at most 2 at the
  /// boundaries in truncated mode, matching SuRF's count()).
  uint64_t CountRange(std::string_view low_key, std::string_view high_key) const;

  size_t num_keys() const { return num_keys_; }
  /// Alias of num_keys() (met::ReadOnlyPointIndex surface).
  size_t size() const { return num_keys_; }
  size_t num_leaves() const { return num_leaves_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t height() const { return height_; }
  size_t dense_levels() const { return dense_levels_; }

  /// Total encoded size (dense bitmaps and their rank LUTs, sparse blocks,
  /// dense-to-sparse child pointers, values).
  size_t MemoryBytes() const;

  /// Appends a self-contained binary image of the trie to `*out`: the dense
  /// bitmaps, the sparse labels, S-HasChild and S-LOUDS as flat sequences,
  /// the values and the per-level node counts. Rank tables, sparse blocks
  /// and child pointers are rebuilt on load, so the format does not depend
  /// on the in-memory layout.
  void Serialize(std::string* out) const;

  /// Restores a trie from `Serialize` output. Returns false (leaving the
  /// object empty) on a malformed image.
  bool Deserialize(std::string_view in);

  /// Memory excluding the value array (the filter footprint).
  size_t FilterMemoryBytes() const;

  /// Component attribution (dense encoding, sparse blocks by field, rank
  /// support, child pointers, values); TotalBytes() == MemoryBytes().
  MemoryBreakdown Breakdown() const;

  /// Breakdown of FilterMemoryBytes() only (no value array); SuRF embeds
  /// this subtree in its own breakdown.
  MemoryBreakdown FilterBreakdown() const;

  /// Cross-checks the LOUDS-Dense/Sparse encodings: bit-sequence sizes,
  /// D-HasChild ⊆ D-Labels, child-pointer bijection (#has-child bits ==
  /// #nodes - 1), every block's inline rank and child pointer against a
  /// naive scan, 0xFF-marker placement, leaf/value accounting, and a full
  /// ordered iterator/Lookup round trip.
  /// No-op unless MET_CHECK_ENABLED (impl in check/fst_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

  /// LOUDS-Sparse as the thesis's three flat sequences, in level order.
  struct SparseSequences {
    std::vector<uint8_t> labels;  // S-Labels
    BitVector has_child;          // S-HasChild
    BitVector louds;              // S-LOUDS
  };
  /// Flattens the sparse blocks back into the three sequences (Serialize,
  /// the validator, and tests against the thesis's Figure 3.2 example).
  SparseSequences FlattenSparse() const;

  // Test-only access to the dense encoding (Figure 3.2 example).
  const BitVector& DenseLabelsForTest() const { return d_labels_; }
  const BitVector& DenseIsPrefixForTest() const { return d_is_prefix_; }

 private:
  friend class Iterator;
  friend struct check::TestAccess;
  bool CheckValidate(std::ostream& os) const;  // check/fst_check.cc

  /// 96 consecutive LOUDS-Sparse labels in one 128-byte block (two cache
  /// lines). Bit i of a sequence is bit i of `*_lo` for i < 64, else bit
  /// i - 64 of `*_hi`.
  struct alignas(128) SparseBlock {
    static constexpr size_t kLabels = 96;
    uint8_t labels[kLabels];
    uint64_t has_child_lo;
    uint64_t louds_lo;
    uint32_t has_child_hi;
    uint32_t louds_hi;
    /// S-HasChild set bits before the block's first label.
    uint32_t rank;
    /// Start position of the child node of the first has-child label at or
    /// after the block's first label (the S-LOUDS terminator if none).
    uint32_t child_pos;
  };
  static_assert(sizeof(SparseBlock) == 128, "a block is two cache lines");
  static_assert(offsetof(SparseBlock, labels) == 0,
                "SearchLabel's 16-byte loads rely on labels coming first");

  /// Descent state shared by the scalar and batched lookups (one per-level
  /// step, fst/fst_step.h). Above dense_levels_, `node` is a dense node
  /// number; below, the node starts `skip` node starts at or after label
  /// position `node` (0 = at `node` itself). The default is the root.
  struct Cursor {
    size_t node = 0;
    size_t skip = 0;
    size_t level = 0;
  };
  /// Advances `c` one level along `key`. Returns false when the descent
  /// ends; *res then holds the result.
  bool Step(std::string_view key, Cursor* c, PathResult* res) const;
  bool DenseStep(std::string_view key, Cursor* c, PathResult* res) const;
  bool SparseStep(std::string_view key, Cursor* c, PathResult* res) const;
  /// Prefetches the lines Step(key, c) will read first (met::batch).
  void PrefetchStep(std::string_view key, const Cursor& c) const;
  /// Prefetches the block holding base + skip and, if the node scan starts
  /// in an earlier block, that block's LOUDS line. Every node has a label,
  /// so the node starts at base + skip or later: exactly there in chains of
  /// single-label nodes, the common case deep in a trie. When the skip
  /// crosses a block boundary both blocks then load in parallel, not one
  /// after the other.
  void PrefetchSparseNode(size_t base, size_t skip) const;

  // ----- dense helpers -----
  size_t DenseRankLabels(size_t pos) const { return d_labels_rank_.Rank1(pos); }
  size_t DenseRankHasChild(size_t pos) const {
    return d_has_child_rank_.Rank1(pos);
  }
  /// Value index for a terminating dense branch at `pos`.
  size_t DenseValuePos(size_t pos) const;
  /// Value index for the prefix-key of dense node `m`.
  size_t DensePrefixValuePos(size_t m) const;

  // ----- sparse helpers (positions are label indexes) -----
  const SparseBlock& BlockOf(size_t pos) const {
    return blocks_[pos / SparseBlock::kLabels];
  }
  uint8_t SparseLabel(size_t pos) const {
    return BlockOf(pos).labels[pos % SparseBlock::kLabels];
  }
  bool SparseHasChild(size_t pos) const;
  bool SparseLouds(size_t pos) const;
  /// S-HasChild set bits in [0, pos).
  size_t SparseHasChildBefore(size_t pos) const;
  size_t SparseValuePos(size_t pos) const {
    return pos - SparseHasChildBefore(pos);
  }
  /// Start of the node `skip` node starts at or after `base` (a node start
  /// or the terminator) and, through *end, one past its last label.
  size_t ResolveNode(size_t base, size_t skip, size_t* end) const;
  size_t SparseNodeEnd(size_t start) const {
    size_t end = 0;
    ResolveNode(start, 0, &end);
    return end;
  }
  /// Start of the child node of the first has-child label at or after
  /// `pos` (num_s_labels_ if there is none).
  size_t SparseChildPos(size_t pos) const;
  /// Searches labels [start, end) for `byte`; returns end if absent.
  size_t SearchLabel(size_t start, size_t end, uint8_t byte) const;
  /// True if the node [start, end) begins with a 0xFF prefix marker.
  bool SparseHasMarker(size_t start, size_t end) const {
    return end - start >= 2 && SparseLabel(start) == 0xFF;
  }

  /// Packs the flat sparse sequences into blocks_ and derives the block
  /// ranks and child pointers, the dense-to-sparse child pointers and the
  /// per-level sparse start positions. Shared by Build and Deserialize.
  void BuildSparse(const SparseSequences& flat);
  /// The dense rank tables (Build and Deserialize).
  void BuildDenseRank();

  // Iterator helpers. A node is a dense node number (dense == true) or a
  // sparse start position.
  void DescendToMin(Iterator* it, size_t node, bool dense) const;
  /// Child of the has-child branch at `pos`; sets *dense for the child.
  size_t ChildOf(size_t pos, bool pos_dense, bool* dense) const;
  bool AdvanceCursor(Iterator* it) const;  // advance deepest cursor in-node
  void CursorDescendOrLeaf(Iterator* it) const;
  void AdvanceUp(Iterator* it) const;

  // ----- CountRange helpers -----
  /// Number of leaf values at dense level `l` whose path sorts strictly
  /// before the bound, given the frontier bit position within that level.
  uint64_t CountDenseLevelBefore(size_t l, uint64_t pos, bool include_marker,
                                 bool include_pos_value) const;
  uint64_t CountSparseLevelBefore(size_t l, uint64_t pos,
                                  bool include_pos_value) const;

  /// Per-level counts of leaves sorting strictly before a key.
  void ComputeFrontier(std::string_view key, std::vector<uint64_t>* counts) const;

  FstConfig config_;

  // Dense encoding.
  BitVector d_labels_, d_has_child_, d_is_prefix_;
  RankSupport d_labels_rank_, d_has_child_rank_, d_is_prefix_rank_;
  size_t dense_levels_ = 0;
  size_t dense_node_count_ = 0;
  size_t dense_child_count_ = 0;  // set bits in D-HasChild
  size_t dense_value_count_ = 0;
  /// Start position of each sparse node that is a child of a dense label
  /// (the root if there are no dense levels), in node order, plus the start
  /// of the next level as a sentinel.
  std::vector<uint32_t> dense_child_pos_;

  // Sparse encoding: num_s_labels_ labels in (num_s_labels_ + 1) / 96 + 1
  // blocks. Positions num_s_labels_ and num_s_labels_ + 1 hold S-LOUDS bits
  // (an empty terminator node), so every node has an end and every child
  // pointer a target.
  std::vector<SparseBlock> blocks_;
  size_t num_s_labels_ = 0;

  // Values, [dense leaves..., sparse leaves...] by leaf id.
  std::vector<uint64_t> values_;

  // Global node number of the first node at each level, with two sentinel
  // entries past the last level (for CountRange frontier extension).
  std::vector<uint64_t> level_node_start_;
  // Sparse labels in the levels before each level (0 for dense levels),
  // same shape and sentinels as level_node_start_.
  std::vector<uint64_t> level_pos_start_;

  size_t num_keys_ = 0;
  size_t num_leaves_ = 0;
  size_t num_nodes_ = 0;
  size_t height_ = 0;
};

}  // namespace met

#endif  // MET_FST_FST_H_
