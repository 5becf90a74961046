// Binary serialization for Fst and Surf. Format: a small header of sizes
// and config, followed by the raw bit/byte sequences, with LOUDS-Sparse as
// three flat sequences (S-Labels, S-HasChild, S-LOUDS). The in-memory
// sparse blocks, rank tables and child pointers are derived structures and
// are rebuilt on load, so images written before the block layout load
// unchanged (tests/data holds such images).
#include <cstring>

#include "fst/fst.h"
#include "surf/surf.h"

namespace met {

namespace {

constexpr uint32_t kFstMagic = 0x4D465354;  // "MFST"
constexpr uint32_t kSurfMagic = 0x4D535246;  // "MSRF"

void PutU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  bool U64(uint64_t* v) {
    if (in_.size() - pos_ < sizeof(*v)) return false;
    std::memcpy(v, in_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return true;
  }

  bool Bytes(void* data, size_t n) {
    if (in_.size() - pos_ < n) return false;
    if (n != 0) std::memcpy(data, in_.data() + pos_, n);  // data may be null
    pos_ += n;
    return true;
  }

  size_t pos() const { return pos_; }
  std::string_view rest() const { return in_.substr(pos_); }
  void Skip(size_t n) { pos_ += n; }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

void PutBitVector(std::string* out, const BitVector& bv) {
  PutU64(out, bv.size());
  PutU64(out, bv.words().size());
  PutBytes(out, bv.words().data(), bv.words().size() * sizeof(uint64_t));
}

bool GetBitVector(Reader* r, BitVector* bv) {
  uint64_t bits, words;
  if (!r->U64(&bits) || !r->U64(&words)) return false;
  if (words != (bits + 63) / 64) return false;
  std::vector<uint64_t> data(words);
  if (!r->Bytes(data.data(), words * sizeof(uint64_t))) return false;
  bv->SetRaw(bits, std::move(data));
  return true;
}

}  // namespace

void Fst::Serialize(std::string* out) const {
  PutU64(out, kFstMagic);
  PutU64(out, static_cast<uint64_t>(config_.mode));
  PutU64(out, config_.max_dense_levels >= 0
                  ? static_cast<uint64_t>(config_.max_dense_levels) + 1
                  : 0);
  PutU64(out, num_keys_);
  PutU64(out, num_leaves_);
  PutU64(out, num_nodes_);
  PutU64(out, height_);
  PutU64(out, dense_levels_);
  PutU64(out, dense_node_count_);
  PutU64(out, dense_child_count_);
  PutU64(out, dense_value_count_);
  PutBitVector(out, d_labels_);
  PutBitVector(out, d_has_child_);
  PutBitVector(out, d_is_prefix_);
  SparseSequences flat = FlattenSparse();
  PutU64(out, num_s_labels_);
  PutBytes(out, flat.labels.data(), num_s_labels_);
  PutBitVector(out, flat.has_child);
  PutBitVector(out, flat.louds);
  PutU64(out, values_.size());
  PutBytes(out, values_.data(), values_.size() * sizeof(uint64_t));
  PutU64(out, level_node_start_.size());
  PutBytes(out, level_node_start_.data(),
           level_node_start_.size() * sizeof(uint64_t));
}

bool Fst::Deserialize(std::string_view in) {
  Reader r(in);
  uint64_t magic, mode, dense_plus1;
  if (!r.U64(&magic) || magic != kFstMagic) return false;
  if (!r.U64(&mode) || !r.U64(&dense_plus1)) return false;
  config_ = FstConfig{};
  config_.mode = static_cast<FstConfig::Mode>(mode);
  config_.max_dense_levels =
      dense_plus1 == 0 ? -1 : static_cast<int>(dense_plus1 - 1);

  uint64_t nkeys, nleaves, nnodes, height, dlevels, dnodes, dchildren, dvalues;
  if (!r.U64(&nkeys) || !r.U64(&nleaves) || !r.U64(&nnodes) ||
      !r.U64(&height) || !r.U64(&dlevels) || !r.U64(&dnodes) ||
      !r.U64(&dchildren) || !r.U64(&dvalues))
    return false;
  num_keys_ = nkeys;
  num_leaves_ = nleaves;
  num_nodes_ = nnodes;
  height_ = height;
  dense_levels_ = dlevels;
  dense_node_count_ = dnodes;
  dense_child_count_ = dchildren;
  dense_value_count_ = dvalues;

  if (!GetBitVector(&r, &d_labels_) || !GetBitVector(&r, &d_has_child_) ||
      !GetBitVector(&r, &d_is_prefix_))
    return false;
  uint64_t nlabels;
  // Sparse positions (and the two terminator bits) must fit the blocks'
  // 32-bit child pointers.
  if (!r.U64(&nlabels) || nlabels > r.rest().size() ||
      nlabels >= (uint64_t{1} << 32) - 2)
    return false;
  SparseSequences flat;
  flat.labels.resize(nlabels);
  if (!r.Bytes(flat.labels.data(), nlabels)) return false;
  if (!GetBitVector(&r, &flat.has_child) || !GetBitVector(&r, &flat.louds))
    return false;
  if (flat.has_child.size() != nlabels || flat.louds.size() != nlabels)
    return false;
  uint64_t nvalues;
  if (!r.U64(&nvalues)) return false;
  values_.resize(nvalues);
  if (!r.Bytes(values_.data(), nvalues * sizeof(uint64_t))) return false;
  uint64_t nlevels;
  if (!r.U64(&nlevels) || nlevels > r.rest().size() / sizeof(uint64_t))
    return false;
  level_node_start_.resize(nlevels);
  if (!r.Bytes(level_node_start_.data(), nlevels * sizeof(uint64_t)))
    return false;

  // The block builder follows the image's child structure: refuse counts
  // that disagree with it rather than scan past the blocks.
  if ((nnodes == 0) != (nleaves == 0)) return false;
  if (nnodes > 0) {
    if (nlevels != height + 2 || dlevels > height || dnodes > nnodes ||
        dchildren + 1 < dnodes ||
        flat.louds.CountOnes() != nnodes - dnodes ||
        dchildren + flat.has_child.CountOnes() != nnodes - 1)
      return false;
    for (size_t l = 1; l < nlevels; ++l)
      if (level_node_start_[l] < level_node_start_[l - 1]) return false;
    if (level_node_start_[dlevels] != dnodes ||
        level_node_start_[nlevels - 1] != nnodes)
      return false;
  }

  BuildDenseRank();
  BuildSparse(flat);
  return true;
}

void Surf::Serialize(std::string* out) const {
  PutU64(out, kSurfMagic);
  PutU64(out, config_.hash_suffix_bits);
  PutU64(out, config_.real_suffix_bits);
  uint64_t depth_fixed =
      static_cast<uint64_t>(avg_leaf_depth_ * 1024.0);  // 1/1024 precision
  PutU64(out, depth_fixed);
  PutU64(out, suffix_words_.size());
  PutBytes(out, suffix_words_.data(), suffix_words_.size() * sizeof(uint64_t));
  fst_.Serialize(out);
}

bool Surf::Deserialize(std::string_view in) {
  Reader r(in);
  uint64_t magic, hash_bits, real_bits, depth_fixed, nwords;
  if (!r.U64(&magic) || magic != kSurfMagic) return false;
  if (!r.U64(&hash_bits) || !r.U64(&real_bits) || !r.U64(&depth_fixed) ||
      !r.U64(&nwords))
    return false;
  config_ = SurfConfig{};
  config_.hash_suffix_bits = static_cast<uint32_t>(hash_bits);
  config_.real_suffix_bits = static_cast<uint32_t>(real_bits);
  avg_leaf_depth_ = static_cast<double>(depth_fixed) / 1024.0;
  suffix_words_.resize(nwords);
  if (!r.Bytes(suffix_words_.data(), nwords * sizeof(uint64_t))) return false;
  return fst_.Deserialize(r.rest());
}

}  // namespace met
