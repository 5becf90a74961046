// met::check validator for the Fast Succinct Trie (fst/fst.h).
//
// Checked invariants, in dependency order:
//  * size accounting: 256-bit D-Labels/D-HasChild and 1-bit D-IsPrefixKey
//    per dense node; (labels + 1) / 96 + 1 sparse blocks whose positions
//    past the last label are zero except the two terminator S-LOUDS bits;
//    level_node_start_ layout with its two sentinels;
//  * D-HasChild ⊆ D-Labels (a branch cannot exist without its label);
//  * child bijection: every node except the root is the target of exactly
//    one has-child bit, so dense_child_count_ + popcount(S-HasChild) ==
//    num_nodes() - 1, and popcount(S-LOUDS) equals the sparse node count;
//  * leaf accounting: dense_value_count_ == terminating dense branches +
//    prefix-key bits; num_leaves() adds the sparse labels without has-child;
//    num_leaves() == num_keys() (each key terminates exactly once); the
//    value array matches when stored;
//  * sparse node shape: S-LOUDS set at position 0, every node's labels
//    strictly increasing, a 0xFF prefix-key marker only at the start of a
//    node of size >= 2 and never with has-child;
//  * rank consistency: the dense rank LUTs agree with a naive cumulative
//    popcount at every position of the three dense bit sequences;
//  * block fields: each block's inline rank equals the S-HasChild bits
//    before it, and its child pointer is the start of the child node of the
//    first has-child label at or after its first label (found by a naive
//    scan of S-LOUDS); the dense-to-sparse child pointers and the per-level
//    sparse start positions match the same scan;
//  * full ordered walk (skipped if the structural checks above failed, since
//    iterating a corrupt encoding may not terminate): leaf paths strictly
//    increasing, leaf ids a permutation of [0, num_leaves()), and
//    Lookup(path) returning the same leaf id and prefix-leaf flag;
//  * in kFullKey mode, CountRange over the full key span == num_leaves().
#include <string>
#include <vector>

#include "check/check.h"
#include "fst/fst.h"
#include "fst/fst_step.h"

namespace met {

bool Fst::CheckValidate(std::ostream& os) const {
  check::Reporter rep(os, "Fst");

  // ---- Size accounting ----
  MET_CHECK_THAT(rep, d_labels_.size() == dense_node_count_ * 256,
                 "D-Labels holds " << d_labels_.size() << " bits for "
                                   << dense_node_count_ << " dense nodes");
  MET_CHECK_THAT(rep, d_has_child_.size() == dense_node_count_ * 256,
                 "D-HasChild holds " << d_has_child_.size() << " bits for "
                                     << dense_node_count_ << " dense nodes");
  MET_CHECK_THAT(rep, d_is_prefix_.size() == dense_node_count_,
                 "D-IsPrefixKey holds " << d_is_prefix_.size() << " bits for "
                                        << dense_node_count_
                                        << " dense nodes");
  MET_CHECK_THAT(rep, num_nodes_ >= dense_node_count_,
                 num_nodes_ << " nodes but " << dense_node_count_ << " dense");
  constexpr size_t kL = SparseBlock::kLabels;
  const size_t want_blocks = num_nodes_ == 0 ? 0 : (num_s_labels_ + 1) / kL + 1;
  MET_CHECK_THAT(rep, blocks_.size() == want_blocks,
                 blocks_.size() << " sparse blocks for " << num_s_labels_
                                << " labels, expected " << want_blocks);
  // Everything below indexes blocks by position; stop on a wrong count.
  if (!rep.ok()) return false;

  if (!(num_nodes_ == 0 && level_node_start_.empty())) {
    MET_CHECK_THAT(rep, level_node_start_.size() == height_ + 2,
                   "level_node_start_ has " << level_node_start_.size()
                       << " entries for height " << height_);
    if (level_node_start_.size() == height_ + 2) {
      MET_CHECK_THAT(rep, level_node_start_[0] == 0,
                     "first level starts at node "
                         << level_node_start_[0]);
      for (size_t l = 1; l < level_node_start_.size(); ++l) {
        MET_CHECK_THAT(rep,
                       level_node_start_[l - 1] <= level_node_start_[l],
                       "level_node_start_ decreases at level " << l);
      }
      MET_CHECK_THAT(rep,
                     level_node_start_[height_] == num_nodes_ &&
                         level_node_start_[height_ + 1] == num_nodes_,
                     "sentinels hold " << level_node_start_[height_] << "/"
                         << level_node_start_[height_ + 1] << ", expected "
                         << num_nodes_);
    }
  }

  // The flat sequences the blocks encode, and the block padding.
  const SparseSequences flat = FlattenSparse();
  const std::vector<uint8_t>& s_labels = flat.labels;
  const BitVector& s_has_child = flat.has_child;
  const BitVector& s_louds = flat.louds;
  for (size_t i = num_s_labels_; i < blocks_.size() * kL; ++i) {
    bool terminator = i <= num_s_labels_ + 1;
    if (SparseLabel(i) != 0 || SparseHasChild(i) ||
        SparseLouds(i) != terminator) {
      MET_CHECK_THAT(rep, false,
                     "sparse position " << i << " past the last label is "
                         << (terminator ? "not a terminator" : "not zero"));
      break;
    }
  }

  // ---- Bit-sequence relations ----
  size_t d_labels_ones = d_labels_.CountOnes();
  size_t d_has_child_ones = d_has_child_.CountOnes();
  size_t d_prefix_ones = d_is_prefix_.CountOnes();
  size_t s_has_child_ones = s_has_child.CountOnes();
  size_t s_louds_ones = s_louds.CountOnes();
  size_t sparse_nodes = num_nodes_ - dense_node_count_;

  for (size_t i = 0; i < d_has_child_.size(); ++i) {
    if (d_has_child_.Get(i) && !d_labels_.Get(i)) {
      MET_CHECK_THAT(rep, false,
                     "D-HasChild bit " << i << " set without its D-Label");
      break;  // one report is enough; the relation is checked bit by bit
    }
  }

  MET_CHECK_THAT(rep, dense_child_count_ == d_has_child_ones,
                 "dense_child_count_ == " << dense_child_count_
                     << " but D-HasChild has " << d_has_child_ones
                     << " set bits");
  MET_CHECK_THAT(rep, s_louds_ones == sparse_nodes,
                 "S-LOUDS has " << s_louds_ones << " set bits for "
                                << sparse_nodes << " sparse nodes");
  if (num_nodes_ > 0) {
    MET_CHECK_THAT(rep,
                   dense_child_count_ + s_has_child_ones == num_nodes_ - 1,
                   "child bijection broken: " << dense_child_count_ << " + "
                       << s_has_child_ones << " has-child bits for "
                       << num_nodes_ << " nodes");
  }
  MET_CHECK_THAT(rep,
                 dense_value_count_ ==
                     d_labels_ones - d_has_child_ones + d_prefix_ones,
                 "dense_value_count_ == " << dense_value_count_
                     << " but terminating branches + markers == "
                     << (d_labels_ones - d_has_child_ones + d_prefix_ones));
  MET_CHECK_THAT(rep,
                 num_leaves_ ==
                     dense_value_count_ + (num_s_labels_ - s_has_child_ones),
                 "num_leaves() == " << num_leaves_ << " but encoding holds "
                     << dense_value_count_ +
                            (num_s_labels_ - s_has_child_ones));
  MET_CHECK_THAT(rep, num_leaves_ == num_keys_,
                 num_leaves_ << " leaves for " << num_keys_
                             << " keys (each key must terminate once)");
  if (config_.store_values) {
    MET_CHECK_THAT(rep, values_.size() == num_leaves_ || values_.empty(),
                   values_.size() << " values for " << num_leaves_
                                  << " leaves");
  } else {
    MET_CHECK_THAT(rep, values_.empty(),
                   values_.size() << " values stored with store_values off");
  }

  // ---- Sparse node shape: LOUDS boundaries, ordering, 0xFF markers ----
  if (num_s_labels_ > 0) {
    MET_CHECK_THAT(rep, s_louds.Get(0),
                   "first sparse label does not start a node");
  }
  for (size_t start = 0; start < num_s_labels_;) {
    size_t end = start + 1;
    while (end < num_s_labels_ && !s_louds.Get(end)) ++end;
    bool marker = s_labels[start] == 0xFF && end - start >= 2;
    if (marker) {
      MET_CHECK_THAT(rep, !s_has_child.Get(start),
                     "0xFF prefix marker at " << start
                                              << " carries a has-child bit");
    }
    for (size_t i = start + (marker ? 2 : 1); i < end; ++i) {
      MET_CHECK_THAT(rep, s_labels[i - 1] < s_labels[i],
                     "sparse labels out of order in node [" << start << ", "
                         << end << ") at " << i);
    }
    start = end;
  }

  // ---- Dense rank consistency: LUT vs naive cumulative count ----
  struct RankProbe {
    const char* name;
    const BitVector* bits;
    const RankSupport* rank;
  };
  const RankProbe probes[] = {
      {"D-Labels", &d_labels_, &d_labels_rank_},
      {"D-HasChild", &d_has_child_, &d_has_child_rank_},
      {"D-IsPrefixKey", &d_is_prefix_, &d_is_prefix_rank_},
  };
  for (const RankProbe& probe : probes) {
    size_t cum = 0;
    for (size_t pos = 0; pos < probe.bits->size(); ++pos) {
      if (probe.bits->Get(pos)) ++cum;
      size_t got = probe.rank->Rank1(pos);
      if (got != cum) {
        MET_CHECK_THAT(rep, false,
                       probe.name << " rank1(" << pos << ") == " << got
                                  << ", naive count == " << cum);
        break;  // a broken LUT would flood the report
      }
    }
  }

  // ---- Block ranks and child pointers vs a naive S-LOUDS scan ----
  if (num_nodes_ > 0 && rep.ok()) {
    // starts[n]: start of sparse node n; the terminator is node sparse_nodes.
    std::vector<size_t> starts;
    for (size_t i = 0; i < num_s_labels_; ++i)
      if (s_louds.Get(i)) starts.push_back(i);
    starts.push_back(num_s_labels_);
    const size_t first_sparse_child =
        dense_child_count_ + 1 - dense_node_count_;
    size_t rank = 0;
    for (size_t b = 0; b < blocks_.size(); ++b) {
      const SparseBlock& blk = blocks_[b];
      size_t child = first_sparse_child + rank;
      if (blk.rank != rank || child >= starts.size() ||
          blk.child_pos != starts[child]) {
        MET_CHECK_THAT(rep, false,
                       "block " << b << " holds rank " << blk.rank
                           << " and child pointer " << blk.child_pos
                           << "; naive scan gives " << rank << " and "
                           << (child < starts.size() ? starts[child] : 0));
        break;
      }
      for (size_t i = b * kL; i < (b + 1) * kL && i < num_s_labels_; ++i)
        rank += s_has_child.Get(i);
    }
    MET_CHECK_THAT(rep, dense_child_pos_.size() == first_sparse_child + 1,
                   dense_child_pos_.size() << " dense-to-sparse child pointers"
                       << " for " << first_sparse_child << " sparse children"
                       << " of dense labels");
    for (size_t n = 0; n < dense_child_pos_.size() && n < starts.size(); ++n) {
      if (dense_child_pos_[n] != starts[n]) {
        MET_CHECK_THAT(rep, false,
                       "dense-to-sparse child " << n << " points at "
                           << dense_child_pos_[n] << ", node starts at "
                           << starts[n]);
        break;
      }
    }
    MET_CHECK_THAT(rep, level_pos_start_.size() == level_node_start_.size(),
                   level_pos_start_.size() << " sparse level starts for "
                       << level_node_start_.size() << " levels");
    for (size_t l = 0; l < level_pos_start_.size(); ++l) {
      size_t want = l < dense_levels_
                        ? 0
                        : starts[level_node_start_[l] - dense_node_count_];
      MET_CHECK_THAT(rep, level_pos_start_[l] == want,
                     "sparse level " << l << " starts at "
                         << level_pos_start_[l] << ", expected " << want);
    }
  }

  // ---- Ordered walk + Lookup round trip ----
  // Iterating relies on every invariant above; a corrupt encoding can send
  // the cursors in circles, so bail out if anything already failed.
  if (!rep.ok()) return false;

  std::vector<bool> seen(num_leaves_, false);
  size_t walked = 0;
  std::string prev_key;
  bool have_prev = false;
  std::string last_key;
  for (Iterator it = Begin(); it.Valid(); it.Next()) {
    if (++walked > num_leaves_) {
      MET_CHECK_THAT(rep, false,
                     "iterator yields more than num_leaves() == "
                         << num_leaves_ << " leaves");
      break;
    }
    uint32_t id = it.leaf_id();
    MET_CHECK_THAT(rep, id < num_leaves_, "leaf id " << id << " out of range");
    if (id < num_leaves_) {
      MET_CHECK_THAT(rep, !seen[id], "leaf id " << id << " visited twice");
      seen[id] = true;
    }
    if (have_prev) {
      MET_CHECK_THAT(rep, prev_key < it.key(),
                     "leaf paths out of order: "
                         << check::KeyToDebugString(prev_key) << " !< "
                         << check::KeyToDebugString(it.key()));
    }
    prev_key = it.key();
    have_prev = true;
    last_key = it.key();

    PathResult res = LookupPath(it.key());
    MET_CHECK_THAT(rep, res.found,
                   "Lookup misses stored path "
                       << check::KeyToDebugString(it.key()));
    if (res.found) {
      MET_CHECK_THAT(rep, res.leaf_id == id,
                     "Lookup(" << check::KeyToDebugString(it.key())
                               << ") resolves leaf " << res.leaf_id
                               << ", iterator is at leaf " << id);
      MET_CHECK_THAT(rep, res.is_prefix_leaf == it.IsPrefixLeaf(),
                     "prefix-leaf flag mismatch at "
                         << check::KeyToDebugString(it.key()));
    }
  }
  MET_CHECK_THAT(rep, walked == num_leaves_,
                 "iterator yields " << walked << " of " << num_leaves_
                                    << " leaves");

  if (config_.mode == FstConfig::Mode::kFullKey && num_leaves_ > 0 &&
      walked == num_leaves_) {
    uint64_t count = CountRange(std::string(), last_key + '\x00');
    MET_CHECK_THAT(rep, count == num_leaves_,
                   "CountRange over the full span == " << count << ", not "
                                                       << num_leaves_);
  }
  return rep.ok();
}

}  // namespace met
