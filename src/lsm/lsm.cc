#include "lsm/lsm.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "io/crc32c.h"
#include "lsm/manifest.h"
#include "lsm/wal.h"

namespace met {

namespace {

// SSTable v2 layout:
//   [block payload][crc32c(payload) u32]  ... repeated per block ...
//   [footer]                              (fence index + table metadata)
//   [footer_offset u64][footer_crc u32][magic u32]   (16-byte trailer)
// The in-memory fence index (block_offset/block_length) addresses payloads;
// the 4-byte checksum trails each payload on disk.
constexpr uint32_t kSstMagic = 0x4D455453u;  // 'METS' (LE)
constexpr size_t kSstTrailerBytes = 16;
constexpr size_t kBlockCrcBytes = 4;

void AppendEntry(std::string* out, std::string_view key, std::string_view value) {
  uint32_t klen = static_cast<uint32_t>(key.size());
  uint32_t vlen = static_cast<uint32_t>(value.size());
  out->append(reinterpret_cast<const char*>(&klen), sizeof(klen));
  out->append(key);
  out->append(reinterpret_cast<const char*>(&vlen), sizeof(vlen));
  out->append(value);
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Bounds-checked cursor over an on-disk buffer; every getter returns false
/// instead of reading past the end, so torn or bit-flipped metadata parses
/// as corruption rather than undefined behavior.
class BufReader {
 public:
  explicit BufReader(std::string_view data) : data_(data) {}

  bool ReadU32(uint32_t* v) { return ReadRaw(v); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v); }

  bool ReadString(size_t n, std::string* out) {
    if (data_.size() - off_ < n) return false;
    out->assign(data_.data() + off_, n);
    off_ += n;
    return true;
  }

  bool Skip(size_t n) {
    if (data_.size() - off_ < n) return false;
    off_ += n;
    return true;
  }

  bool AtEnd() const { return off_ == data_.size(); }
  size_t offset() const { return off_; }

 private:
  template <typename T>
  bool ReadRaw(T* v) {
    if (data_.size() - off_ < sizeof(T)) return false;
    std::memcpy(v, data_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  std::string_view data_;
  size_t off_ = 0;
};

/// Calls f(offset) at the start of each entry of a block payload; false
/// when an entry overruns the payload.
template <typename F>
bool WalkEntries(std::string_view payload, F&& f) {
  BufReader r(payload);
  while (!r.AtEnd()) {
    f(r.offset());
    uint32_t klen, vlen;
    if (!r.ReadU32(&klen) || !r.Skip(klen) || !r.ReadU32(&vlen) ||
        !r.Skip(vlen))
      return false;
  }
  return true;
}

/// The block's structural check: records where each entry starts, or
/// returns false when the payload does not split into whole entries (only
/// reachable via corruption that collides with the block checksum).
/// `offsets` grows to exactly the entry count, so a reused one takes on no
/// slack.
bool IndexBlock(std::string_view payload, std::vector<uint32_t>* offsets) {
  size_t n = 0;
  if (!WalkEntries(payload, [&](size_t) { ++n; })) return false;
  offsets->clear();
  offsets->reserve(n);
  WalkEntries(payload, [&](size_t off) {
    offsets->push_back(static_cast<uint32_t>(off));
  });
  return true;
}

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Fence index lookup: the last block whose first key <= key (block 0 when
/// key sorts before every block).
size_t FenceBlock(const std::vector<std::string>& first_keys,
                  std::string_view key) {
  auto it = std::upper_bound(
      first_keys.begin(), first_keys.end(), key,
      [](std::string_view k, const std::string& f) { return k < f; });
  return it == first_keys.begin() ? 0 : (it - first_keys.begin()) - 1;
}

/// Parses the decimal id following `prefix` in a directory entry name;
/// false if the name has any non-digit suffix (e.g. editor leftovers).
bool ParseTrailingId(const std::string& name, const char* prefix,
                     uint64_t* id) {
  const size_t plen = std::strlen(prefix);
  if (name.size() <= plen) return false;
  uint64_t v = 0;
  for (size_t i = plen; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *id = v;
  return true;
}

}  // namespace

const LsmObsMetrics& LsmObsMetrics::Get() {
  static const LsmObsMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return LsmObsMetrics{
        reg.GetCounter("lsm.block.reads"),
        reg.GetCounter("lsm.block.cache_hits"),
        reg.GetCounter("lsm.flush.count"),
        reg.GetCounter("lsm.compaction.count"),
        reg.GetCounter("lsm.filter.probes"),
        reg.GetCounter("lsm.filter.negatives"),
        reg.GetCounter("lsm.filter.bloom.true_positives"),
        reg.GetCounter("lsm.filter.bloom.false_positives"),
        reg.GetCounter("lsm.filter.surf.true_positives"),
        reg.GetCounter("lsm.filter.surf.false_positives"),
        reg.GetCounter("lsm.wal.appends"),
        reg.GetCounter("lsm.wal.syncs"),
        reg.GetCounter("lsm.wal.replayed_records"),
        reg.GetCounter("lsm.wal.torn_tails"),
        reg.GetCounter("lsm.manifest.writes"),
        reg.GetCounter("lsm.block.corruptions"),
        reg.GetCounter("lsm.recovery.orphans_removed"),
        reg.GetCounter("lsm.recovery.bad_tables"),
        reg.GetHistogram("lsm.flush.duration_ns"),
        reg.GetHistogram("lsm.compaction.duration_ns"),
        reg.GetHistogram("lsm.compaction.merged_entries"),
    };
  }();
  return m;
}

const char* LsmFilterTypeName(LsmFilterType t) {
  switch (t) {
    case LsmFilterType::kNone:
      return "no-filter";
    case LsmFilterType::kBloom:
      return "Bloom";
    case LsmFilterType::kSurfHash:
      return "SuRF-Hash";
    case LsmFilterType::kSurfReal:
      return "SuRF-Real";
  }
  return "?";
}

LsmTree::LsmTree(const LsmOptions& options) : options_(options) {
  env_ = options_.env != nullptr ? options_.env : &io::Env::Posix();
  levels_.resize(1);
  cache_.resize(std::max<size_t>(options_.block_cache_blocks, 1));
  size_t index_size = 1;
  while (index_size < 2 * cache_.size()) index_size *= 2;
  cache_index_.assign(index_size, kNoSlot);
  for (size_t i = cache_.size(); i-- > 0;)
    cache_free_.push_back(static_cast<uint32_t>(i));
  if (options_.durable) {
    io::Status s = Recover();
    if (!s.ok()) last_io_error_ = s;
  } else {
    (void)env_->MkDir(options_.dir);  // pre-existing dir is fine (EEXIST)
  }
}

LsmTree::~LsmTree() {
  if (crashed_) return;  // leave the directory exactly as the "kill" did
  if (options_.durable) {
    // Clean close: ack everything in the WAL; the directory stays behind
    // for the next Open to recover.
    if (wal_ != nullptr) {
      (void)wal_->Sync();   // destructor: nowhere to report; recovery replays
      (void)wal_->Close();  // ditto
    }
    for (auto& level : levels_)
      for (auto& t : level)
        if (t->file != nullptr) (void)t->file->Close();
    return;
  }
  // Ephemeral (historical) behavior: the files are private to this instance.
  for (auto& level : levels_)
    for (auto& t : level) CloseAndRemoveFile(*t);
}

std::unique_ptr<LsmTree> LsmTree::Open(LsmOptions options, io::Status* status) {
  options.durable = true;
  auto tree = std::make_unique<LsmTree>(options);
  if (status != nullptr) *status = tree->last_io_error_;
  return tree;
}

void LsmTree::SimulateCrash() {
  if (wal_ != nullptr) wal_->AbandonForCrash();
  for (auto& level : levels_)
    for (auto& t : level) t->file.reset();  // close without sync
  crashed_ = true;
}

void LsmTree::CloseAndRemoveFile(SsTable& t) {
  // The table id is never reused: free its cached blocks for the next miss.
  for (size_t b = 0; b < t.block_first_key.size(); ++b) {
    const uint32_t slot = CacheFind(t.id, b);
    if (slot == kNoSlot) continue;
    CacheUnlink(slot);
    cache_free_.push_back(slot);
  }
  if (t.file != nullptr) {
    (void)t.file->Close();  // dropping the table; close errors change nothing
    t.file.reset();
  }
  (void)env_->Remove(t.path);  // orphan files are swept at next recovery
}

void LsmTree::ApplyToMemtable(std::string_view key, std::string_view value) {
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    memtable_bytes_ += value.size() - it->second.size();
    it->second = std::string(value);
  } else {
    memtable_bytes_ += key.size() + value.size() + 32;
    memtable_.emplace(std::string(key), std::string(value));
  }
}

io::Status LsmTree::Put(std::string_view key, std::string_view value) {
  if (crashed_) return io::Status::IoError("tree crashed");
  if (options_.durable) {
    if (wal_ == nullptr) {
      return io::Status::IoError("wal unavailable (degraded open)");
    }
    io::Status s = wal_->Append(key, value);
    if (!s.ok()) {
      last_io_error_ = s;
      return s;  // not applied: the record never fully reached the log
    }
    CountEvent(&stats_.wal_appends, obs_.wal_appends);
  }
  ApplyToMemtable(key, value);
  // From here on the write is applied; background failures (group sync,
  // flush, compaction) are reported via last_io_error() only.
  if (options_.durable &&
      wal_->unsynced_bytes() >= options_.wal_group_sync_bytes) {
    (void)SyncWal();  // group sync is opportunistic; failure surfaces via
                      // last_io_error_ and the next forced sync
  }
  if (memtable_bytes_ >= options_.memtable_bytes) {
    io::Status s = FlushMemTable();
    if (s.ok()) s = MaybeCompact();
    if (!s.ok()) last_io_error_ = s;
  }
  return io::Status::OK();
}

io::Status LsmTree::SyncWal() {
  if (!options_.durable) return io::Status::OK();
  if (crashed_) return io::Status::IoError("tree crashed");
  if (wal_ == nullptr) return io::Status::IoError("wal unavailable");
  io::Status s = wal_->Sync();
  if (s.ok()) {
    CountEvent(&stats_.wal_syncs, obs_.wal_syncs);
  } else {
    last_io_error_ = s;
  }
  return s;
}

io::Status LsmTree::Finish() {
  if (crashed_) return io::Status::IoError("tree crashed");
  io::Status s = FlushMemTable();
  if (s.ok()) s = MaybeCompact();
  if (!s.ok()) last_io_error_ = s;
  return s;
}

// ---------------------------------------------------------------------------
// Streaming merge: cursors and the table builder
// ---------------------------------------------------------------------------

/// A sorted source of unique keys. key()/value() stay valid until this
/// cursor's next Next() or Open(); no cursor keeps a pointer into the block
/// cache, so any number of cursors can advance in any order.
///
/// A source that reads blocks may be unopened (exact() false): key() is
/// then only a lower bound on its next key, value() is empty, and Open()
/// reads toward that key (the source may stay unopened with a larger
/// bound). MergeCursor opens a source only when its bound is the minimum.
class LsmTree::Cursor {
 public:
  Cursor() = default;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;
  virtual ~Cursor() = default;
  virtual void Next() = 0;
  virtual void Open() {}
  bool Valid() const { return valid_; }
  bool exact() const { return exact_; }
  std::string_view key() const { return key_; }
  std::string_view value() const { return value_; }
  /// Non-OK once a read failed; the cursor is then no longer valid.
  const io::Status& status() const { return status_; }

 protected:
  bool valid_ = false;
  bool exact_ = true;
  std::string_view key_, value_;
  io::Status status_;
};

class LsmTree::MemCursor final : public Cursor {
 public:
  MemCursor(const MemTable& m, std::string_view lk)
      : it_(m.lower_bound(lk)), end_(m.end()) {
    Settle();
  }
  void Next() override {
    ++it_;
    Settle();
  }

 private:
  void Settle() {
    valid_ = it_ != end_;
    if (valid_) {
      key_ = it_->first;
      value_ = it_->second;
    }
  }
  MemTable::const_iterator it_, end_;
};

/// Walks a run of disjoint tables in key order (one L0 table, or a level's
/// tables) block by block, from the first key >= lk. Compactions (`direct`)
/// read and verify each block from the file into the cursor's own buffer
/// and walk it in place. Range reads go through the block cache and copy a
/// few entries at a time, as raw bytes plus offsets, out of the cache slot.
/// A range read's cursor starts unopened, its bound the first table's
/// min_key when lk precedes it, else that table's SuRF candidate
/// MoveToNext(lk) (a table whose SuRF has no key >= lk is skipped), else
/// lk; after each block it parks unopened at the next block's first key,
/// from the fence index. Quarantined and corrupt blocks are skipped.
class LsmTree::RunCursor final : public Cursor {
 public:
  RunCursor(LsmTree* tree, std::vector<const SsTable*> tables,
            std::string_view lk, bool direct)
      : tree_(tree), tables_(std::move(tables)), lk_(lk), direct_(direct) {
    Start();
    if (direct_) Load();
  }
  ~RunCursor() override {
    // A SuRF bound that was never opened saved that table's block read.
    if (surf_bound_) {
      CountEvent(&tree_->stats_.filter_negatives,
                 tree_->obs_.filter_negatives);
    }
  }
  void Open() override {
    if (valid_ && !exact_) Load();
  }
  void Next() override {
    if (++pos_ < buf_.count()) {
      Settle();
    } else if (direct_ || entry_ != 0) {
      Load();
    } else {
      Park();
    }
  }

 private:
  // Entries copied out of a cache slot per GetBlock call: a short scan
  // copies only what it is likely to visit.
  static constexpr size_t kCacheCopyBatch = 16;

  void Settle() {
    key_ = buf_.key(pos_);
    value_ = buf_.value(pos_);
  }

  void Start() {
    for (; table_ < tables_.size(); ++table_, block_ = 0) {
      const SsTable& t = *tables_[table_];
      if (lk_ <= t.min_key) break;
      block_ = FenceBlock(t.block_first_key, lk_);
      valid_ = true;
      exact_ = false;
      key_ = lk_;
      if (t.surf == nullptr) return;
      CountEvent(&tree_->stats_.filter_probes, tree_->obs_.filter_probes);
      Surf::SeekResult r = t.surf->MoveToNext(lk_);
      if (r.found) {
        // A prefix of the table's next key. A prefix of lk itself
        // (fp_flag) bounds less tightly than lk.
        if (r.key > lk_) {
          bound_ = std::move(r.key);
          key_ = bound_;
        }
        surf_bound_ = true;
        return;
      }
      CountEvent(&tree_->stats_.filter_negatives,
                 tree_->obs_.filter_negatives);
    }
    Park();
  }

  // Steps past exhausted tables; false at the end of the run.
  bool AtBlock() {
    for (; table_ < tables_.size(); ++table_, block_ = 0)
      if (block_ < tables_[table_]->block_first_key.size()) return true;
    return false;
  }

  // Unopened at block_, bound by its first key; invalid at the end.
  void Park() {
    exact_ = false;
    valid_ = AtBlock();
    if (valid_) key_ = tables_[table_]->block_first_key[block_];
  }

  // Fills buf_ with the next entries >= lk. Direct mode reads blocks until
  // one has such an entry; cache mode reads one and parks after it when it
  // has none. Invalid at the end of the run or on an I/O error.
  void Load() {
    surf_bound_ = false;
    pos_ = 0;
    while (AtBlock()) {
      const SsTable& t = *tables_[table_];
      if (direct_) {
        const bool ok = tree_->ReadBlockDirect(t, block_++, &buf_, &status_);
        if (!status_.ok()) break;
        if (!ok) continue;
        pos_ = buf_.LowerBound(lk_);
      } else {
        const RawBlock* b = tree_->GetBlock(t, block_);
        size_t from = entry_, to = 0;
        if (b != nullptr) {
          if (from == 0) from = b->LowerBound(lk_);
          to = std::min(b->count(), from + kCacheCopyBatch);
          buf_.CopyFrom(*b, from, to);
        } else {
          buf_.Clear();
        }
        if (b == nullptr || to == b->count()) {
          ++block_;
          entry_ = 0;
        } else {
          entry_ = to;
        }
      }
      if (pos_ < buf_.count()) {
        valid_ = exact_ = true;
        Settle();
        return;
      }
      if (!direct_) {
        Park();
        return;
      }
    }
    valid_ = false;
  }

  LsmTree* tree_;
  std::vector<const SsTable*> tables_;
  const std::string_view lk_;
  const bool direct_;
  size_t table_ = 0, block_ = 0;
  size_t entry_ = 0;  // cache mode: next entry of block_ to copy
  RawBlock buf_;
  size_t pos_ = 0;
  std::string bound_;        // the SuRF candidate key_ points at
  bool surf_bound_ = false;  // key_ is an unopened table's SuRF bound
};

/// K-way merge of sources given oldest first: yields each key once, with
/// the value of the newest source holding it, up to `hk` when set. An
/// unopened source is opened only when its bound is the smallest head (on
/// a tie it opens before an open source holding that key), so a source
/// whose bound lies past the keys read costs no block. Stops with a
/// source's status when that source fails a read.
class LsmTree::MergeCursor final : public Cursor {
 public:
  explicit MergeCursor(std::vector<std::unique_ptr<Cursor>> sources,
                       std::optional<std::string_view> hk = std::nullopt)
      : src_(std::move(sources)), hk_(hk) {
    Pick();
  }
  void Next() override {
    // Older versions of the current key are skipped before the winner
    // moves on (key_ points into the winner's buffer). No unopened source
    // is among them: Pick's tie rule leaves every unopened bound past key_.
    for (auto& c : src_)
      if (c.get() != top_ && c->Valid() && c->key() == key_) c->Next();
    top_->Next();
    Pick();
  }

 private:
  void Pick() {
    while (true) {
      top_ = nullptr;
      for (auto& c : src_) {
        if (!c->status().ok()) {
          status_ = c->status();
          valid_ = false;
          return;
        }
        // On equal keys an unopened source goes first, then the later,
        // newer source wins.
        if (c->Valid() &&
            (top_ == nullptr || c->key() < top_->key() ||
             (c->key() == top_->key() && (top_->exact() || !c->exact()))))
          top_ = c.get();
      }
      if (top_ != nullptr && hk_ && top_->key() > *hk_) top_ = nullptr;
      if (top_ == nullptr || top_->exact()) break;
      top_->Open();
    }
    valid_ = top_ != nullptr;
    if (valid_) {
      key_ = top_->key();
      value_ = top_->value();
    }
  }

  std::vector<std::unique_ptr<Cursor>> src_;
  const std::optional<std::string_view> hk_;
  Cursor* top_ = nullptr;
};

/// Streams sorted, unique entries into SSTables (v2 format above): cuts a
/// block once its payload reaches block_bytes and a table once its entries
/// reach `target_bytes` (k + v + 8 each), writing through a bounded buffer.
/// Each finished table is fsync'd (durable mode), reopened for reads and
/// given a filter built from its keys.
class LsmTree::TableBuilder {
 public:
  TableBuilder(LsmTree* tree, uint64_t target_bytes)
      : tree_(tree), target_bytes_(target_bytes) {}
  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  ~TableBuilder() {
    if (cur_ != nullptr) {
      if (file_ != nullptr) (void)file_->Close();  // abandoning the table
      (void)tree_->env_->Remove(cur_->path);  // ditto; recovery sweeps it
    }
    for (auto& t : done_) tree_->CloseAndRemoveFile(*t);
  }

  /// Writes every entry of `c` and hands out the tables. On an error the
  /// tables written so far are removed with the builder.
  io::Status Build(Cursor* c, std::vector<std::unique_ptr<SsTable>>* out) {
    io::Status s;
    for (; s.ok() && c->Valid(); c->Next()) s = Add(c->key(), c->value());
    if (s.ok()) s = c->status();
    if (s.ok() && cur_ != nullptr) s = FinishTable();
    if (s.ok()) out->swap(done_);
    return s;
  }

  uint64_t entries() const { return entries_; }

 private:
  // Buffered output per write call; a table's blocks reach the file in
  // chunks of about this size.
  static constexpr size_t kWriteChunkBytes = 64 << 10;

  io::Status Add(std::string_view key, std::string_view value) {
    if (cur_ == nullptr) {
      cur_ = std::make_unique<SsTable>();
      cur_->id = tree_->next_table_id_++;
      cur_->path = tree_->TablePath(cur_->id);
      cur_->min_key.assign(key);
      io::Status s =
          tree_->env_->NewFile(cur_->path, io::OpenMode::kWrite, &file_);
      if (!s.ok()) return s;
    }
    if (buf_.size() == block_start_) cur_->block_first_key.emplace_back(key);
    AppendEntry(&buf_, key, value);
    cur_->max_key.assign(key);
    ++cur_->num_entries;
    ++entries_;
    if (tree_->options_.filter != LsmFilterType::kNone) keys_.emplace_back(key);
    table_bytes_ += key.size() + value.size() + 8;
    io::Status s;
    if (buf_.size() - block_start_ >= tree_->options_.block_bytes)
      s = CutBlock();
    if (s.ok() && table_bytes_ >= target_bytes_) s = FinishTable();
    return s;
  }

  io::Status CutBlock() {
    const size_t len = buf_.size() - block_start_;
    cur_->block_offset.push_back(written_ + block_start_);
    cur_->block_length.push_back(static_cast<uint32_t>(len));
    AppendU32(&buf_, io::Crc32c(buf_.data() + block_start_, len));
    block_start_ = buf_.size();
    return buf_.size() >= kWriteChunkBytes ? WriteBuffer() : io::Status::OK();
  }

  io::Status WriteBuffer() {
    io::Status s = file_->WriteFull(written_, buf_);
    written_ += buf_.size();
    buf_.clear();
    block_start_ = 0;
    return s;
  }

  io::Status FinishTable() {
    SsTable* t = cur_.get();
    if (buf_.size() > block_start_) {
      io::Status s = CutBlock();
      if (!s.ok()) return s;
    }
    t->data_bytes = written_ + buf_.size();
    const size_t footer_start = buf_.size();
    AppendU32(&buf_, static_cast<uint32_t>(t->block_first_key.size()));
    for (size_t b = 0; b < t->block_first_key.size(); ++b) {
      AppendU32(&buf_, static_cast<uint32_t>(t->block_first_key[b].size()));
      buf_.append(t->block_first_key[b]);
      AppendU64(&buf_, t->block_offset[b]);
      AppendU32(&buf_, t->block_length[b]);
    }
    AppendU64(&buf_, t->num_entries);
    AppendU32(&buf_, static_cast<uint32_t>(t->max_key.size()));
    buf_.append(t->max_key);
    const uint32_t footer_crc = io::Crc32c(buf_.data() + footer_start,
                                           buf_.size() - footer_start);
    AppendU64(&buf_, t->data_bytes);
    AppendU32(&buf_, footer_crc);
    AppendU32(&buf_, kSstMagic);
    t->file_bytes = written_ + buf_.size();

    io::Status s = WriteBuffer();
    if (s.ok() && tree_->options_.durable) s = file_->SyncWithRetry();
    io::Status cs = file_->Close();
    file_.reset();
    if (s.ok()) s = cs;
    if (s.ok()) {
      s = tree_->env_->NewFile(t->path, io::OpenMode::kRead, &t->file);
    }
    if (!s.ok()) return s;
    tree_->BuildFilter(t, keys_);
    keys_.clear();
    done_.push_back(std::move(cur_));
    written_ = 0;
    table_bytes_ = 0;
    return io::Status::OK();
  }

  LsmTree* tree_;
  const uint64_t target_bytes_;
  std::unique_ptr<SsTable> cur_;  // table being written
  std::unique_ptr<io::File> file_;
  std::string buf_;          // unwritten tail of cur_'s file
  size_t block_start_ = 0;   // offset of the open block in buf_
  uint64_t written_ = 0;     // bytes of cur_'s file already written
  uint64_t table_bytes_ = 0;
  std::vector<std::string> keys_;  // cur_'s keys, when a filter is built
  std::vector<std::unique_ptr<SsTable>> done_;
  uint64_t entries_ = 0;
};

io::Status LsmTree::FlushMemTable() {
  if (memtable_.empty()) return io::Status::OK();
  obs::ScopedTimer span(obs_.flush_ns, "lsm.flush");
  std::vector<std::unique_ptr<SsTable>> out;
  {
    TableBuilder builder(this, ~uint64_t{0});  // one L0 table per flush
    MemCursor c(memtable_, {});
    io::Status s = builder.Build(&c, &out);
    if (!s.ok()) return s;  // memtable intact; retried on the next trigger
  }
  std::unique_ptr<SsTable> t = std::move(out.front());

  if (options_.durable) {
    // Commit protocol: new table is durable on disk; create the next WAL,
    // then publish {levels + new wal_gen} in the manifest. Only after the
    // manifest commits is the memtable cleared and the old WAL removed — a
    // crash at any step recovers either the old state (old WAL replays the
    // memtable) or the new one.
    const uint64_t old_gen = wal_gen_;
    const uint64_t new_gen = wal_gen_ + 1;
    auto new_wal = std::make_unique<LsmWal>(*env_, WalPath(new_gen));
    io::Status s = new_wal->Open();
    if (!s.ok()) {
      CloseAndRemoveFile(*t);
      return s;
    }
    levels_[0].push_back(std::move(t));
    wal_gen_ = new_gen;
    s = WriteManifest();
    if (!s.ok()) {
      wal_gen_ = old_gen;
      auto dropped = std::move(levels_[0].back());
      levels_[0].pop_back();
      CloseAndRemoveFile(*dropped);
      (void)new_wal->Close();              // error path: report s, not these
      (void)env_->Remove(WalPath(new_gen));  // ditto
      return s;
    }
    // Old WAL's records are in the flushed table now; drop best-effort.
    if (wal_ != nullptr) (void)wal_->Close();
    (void)env_->Remove(WalPath(old_gen));  // see above: superseded by flush
    wal_ = std::move(new_wal);
  } else {
    levels_[0].push_back(std::move(t));
  }

  memtable_.clear();
  memtable_bytes_ = 0;
  CountEvent(&stats_.flushes, obs_.flushes);
  return io::Status::OK();
}

void LsmTree::BuildFilter(SsTable* t,
                          const std::vector<std::string>& keys) const {
  switch (options_.filter) {
    case LsmFilterType::kNone:
      break;
    case LsmFilterType::kBloom: {
      t->bloom = std::make_unique<BloomFilter>(keys.size(),
                                               options_.bloom_bits_per_key);
      for (const auto& k : keys) t->bloom->Add(k);
      break;
    }
    case LsmFilterType::kSurfHash:
    case LsmFilterType::kSurfReal: {
      SurfConfig cfg = options_.filter == LsmFilterType::kSurfHash
                           ? SurfConfig::Hash(options_.surf_suffix_bits)
                           : SurfConfig::Real(options_.surf_suffix_bits);
      t->surf = std::make_unique<Surf>();
      t->surf->Build(keys, cfg);
      break;
    }
  }
}

io::Status LsmTree::MaybeCompact() {
  while (true) {
    if (levels_[0].size() > options_.level0_table_limit) {
      io::Status s = CompactLevel0();
      if (!s.ok()) return s;
      continue;
    }
    bool did = false;
    for (size_t l = 1; l < levels_.size(); ++l) {
      uint64_t limit = options_.level1_bytes;
      for (size_t i = 1; i < l; ++i) limit *= options_.level_multiplier;
      uint64_t bytes = 0;
      for (const auto& t : levels_[l]) bytes += t->file_bytes;
      if (bytes > limit) {
        io::Status s = CompactLevel(l);
        if (!s.ok()) return s;
        did = true;
        break;
      }
    }
    if (!did) break;
  }
  return io::Status::OK();
}

io::Status LsmTree::CompactLevel0() {
  // Merge all L0 tables plus every overlapping L1 table into new L1 tables.
  obs::ScopedTimer span(obs_.compaction_ns, "lsm.compaction.l0");
  if (levels_.size() < 2) levels_.resize(2);
  std::string_view min_key = levels_[0].front()->min_key;
  std::string_view max_key = levels_[0].front()->max_key;
  std::vector<const SsTable*> upper, lower;
  for (const auto& t : levels_[0]) {  // creation order: oldest first
    min_key = std::min<std::string_view>(min_key, t->min_key);
    max_key = std::max<std::string_view>(max_key, t->max_key);
    upper.push_back(t.get());
  }
  for (const auto& t : levels_[1]) {
    if (!(t->max_key < min_key || t->min_key > max_key))
      lower.push_back(t.get());
  }
  return Compact(0, upper, lower);
}

io::Status LsmTree::CompactLevel(size_t level) {
  // Move one table of `level` down, merging with overlapping tables. The
  // victim is chosen by a rotating cursor (as in RocksDB), so over time
  // every level spans the whole key range instead of partitioning it.
  obs::ScopedTimer span(obs_.compaction_ns, "lsm.compaction");
  if (levels_.size() < level + 2) levels_.resize(level + 2);
  if (compact_cursor_.size() < levels_.size()) compact_cursor_.resize(levels_.size(), 0);
  size_t idx = compact_cursor_[level] % levels_[level].size();
  compact_cursor_[level] = idx + 1;
  const SsTable* victim = levels_[level][idx].get();
  std::vector<const SsTable*> lower;
  for (const auto& t : levels_[level + 1])
    if (!(t->max_key < victim->min_key || t->min_key > victim->max_key))
      lower.push_back(t.get());
  return Compact(level, {victim}, lower);
}

io::Status LsmTree::Compact(size_t level,
                            const std::vector<const SsTable*>& upper,
                            const std::vector<const SsTable*>& lower) {
  std::vector<std::unique_ptr<SsTable>> tables;
  uint64_t entries = 0;
  {
    std::vector<std::unique_ptr<Cursor>> sources;  // oldest first
    sources.push_back(std::make_unique<RunCursor>(this, lower, "", true));
    for (const SsTable* t : upper) {
      sources.push_back(std::make_unique<RunCursor>(
          this, std::vector<const SsTable*>{t}, "", true));
    }
    MergeCursor merged(std::move(sources));
    TableBuilder builder(this, options_.sstable_target_bytes);
    io::Status s = builder.Build(&merged, &tables);
    if (!s.ok()) return s;  // the builder removes its outputs
    entries = builder.entries();
  }

  // Commit in memory: the outputs replace the inputs in level + 1.
  std::vector<std::unique_ptr<SsTable>> removed;
  auto take = [&](std::vector<std::unique_ptr<SsTable>>& from,
                  const std::vector<const SsTable*>& inputs) {
    auto first =
        std::stable_partition(from.begin(), from.end(), [&](const auto& t) {
          return std::find(inputs.begin(), inputs.end(), t.get()) ==
                 inputs.end();
        });
    for (auto it = first; it != from.end(); ++it)
      removed.push_back(std::move(*it));
    from.erase(first, from.end());
  };
  take(levels_[level], upper);
  take(levels_[level + 1], lower);
  auto& next = levels_[level + 1];
  for (auto& t : tables) next.push_back(std::move(t));
  std::sort(next.begin(), next.end(),
            [](const auto& a, const auto& b) { return a->min_key < b->min_key; });
  CountEvent(&stats_.compactions, obs_.compactions);
  obs_.compaction_entries->Record(entries);

  // Publish, then drop the inputs. If the manifest write fails the input
  // files stay on disk: the stale manifest still names a complete,
  // content-equivalent state (compaction preserves content), and the next
  // successful manifest write supersedes it.
  io::Status ms = options_.durable ? WriteManifest() : io::Status::OK();
  if (ms.ok()) {
    for (auto& t : removed) CloseAndRemoveFile(*t);
  } else {
    for (auto& t : removed)
      if (t->file != nullptr) (void)t->file->Close();
  }
  return ms;
}

// ---------------------------------------------------------------------------
// Durability: manifest + recovery
// ---------------------------------------------------------------------------

io::Status LsmTree::WriteManifest() {
  LsmManifestData data;
  data.wal_gen = wal_gen_;
  data.next_table_id = next_table_id_;
  data.levels.resize(levels_.size());
  for (size_t l = 0; l < levels_.size(); ++l)
    for (const auto& t : levels_[l]) data.levels[l].push_back(t->id);
  io::Status s = LsmManifest::Write(*env_, options_.dir, ++manifest_gen_, data);
  if (s.ok()) obs_.manifest_writes->Increment();
  return s;
}

io::Status LsmTree::OpenTable(uint64_t id, std::unique_ptr<SsTable>* out) {
  auto t = std::make_unique<SsTable>();
  t->id = id;
  t->path = TablePath(id);
  io::Status s = env_->NewFile(t->path, io::OpenMode::kRead, &t->file);
  if (!s.ok()) return s;
  uint64_t size = 0;
  s = t->file->Size(&size);
  if (!s.ok()) return s;
  if (size < kSstTrailerBytes) {
    return io::Status::Corruption("table smaller than its trailer: " + t->path);
  }
  char trailer[kSstTrailerBytes];
  s = t->file->ReadFull(size - kSstTrailerBytes, trailer, kSstTrailerBytes);
  if (!s.ok()) return s;
  uint64_t footer_offset;
  uint32_t footer_crc, magic;
  std::memcpy(&footer_offset, trailer, 8);
  std::memcpy(&footer_crc, trailer + 8, 4);
  std::memcpy(&magic, trailer + 12, 4);
  if (magic != kSstMagic) {
    return io::Status::Corruption("bad table magic: " + t->path);
  }
  if (footer_offset > size - kSstTrailerBytes) {
    return io::Status::Corruption("table footer offset out of range: " +
                                  t->path);
  }
  const size_t footer_len =
      static_cast<size_t>(size - kSstTrailerBytes - footer_offset);
  std::string footer(footer_len, '\0');
  if (footer_len > 0) {
    s = t->file->ReadFull(footer_offset, footer.data(), footer_len);
    if (!s.ok()) return s;
  }
  if (io::Crc32c(footer.data(), footer.size()) != footer_crc) {
    return io::Status::Corruption("table footer checksum mismatch: " + t->path);
  }

  BufReader r(footer);
  uint32_t nblocks = 0;
  if (!r.ReadU32(&nblocks) || nblocks == 0) {
    return io::Status::Corruption("table footer unparsable: " + t->path);
  }
  t->block_first_key.reserve(nblocks);
  t->block_offset.reserve(nblocks);
  t->block_length.reserve(nblocks);
  for (uint32_t b = 0; b < nblocks; ++b) {
    uint32_t klen = 0, len = 0;
    uint64_t off = 0;
    std::string key;
    if (!r.ReadU32(&klen) || !r.ReadString(klen, &key) || !r.ReadU64(&off) ||
        !r.ReadU32(&len)) {
      return io::Status::Corruption("table footer unparsable: " + t->path);
    }
    t->block_first_key.push_back(std::move(key));
    t->block_offset.push_back(off);
    t->block_length.push_back(len);
  }
  uint32_t maxklen = 0;
  if (!r.ReadU64(&t->num_entries) || !r.ReadU32(&maxklen) ||
      !r.ReadString(maxklen, &t->max_key) || !r.AtEnd()) {
    return io::Status::Corruption("table footer unparsable: " + t->path);
  }
  t->min_key = t->block_first_key.front();
  t->data_bytes = footer_offset;
  t->file_bytes = size;

  // Rebuild the filter from block data. A corrupt block means the filter
  // would miss its keys — a false negative — so such a table serves reads
  // unfiltered instead.
  if (options_.filter != LsmFilterType::kNone) {
    std::vector<std::string> keys;
    RunCursor c(this, {t.get()}, "", /*direct=*/true);
    for (; c.Valid(); c.Next()) keys.emplace_back(c.key());
    if (c.status().ok() && t->quarantined.empty() && !keys.empty()) {
      BuildFilter(t.get(), keys);
    }
  }
  *out = std::move(t);
  return io::Status::OK();
}

io::Status LsmTree::Recover() {
  io::Status s = env_->MkDir(options_.dir);
  if (!s.ok()) return s;

  LsmManifestData data;
  uint64_t gen = 0;
  s = LsmManifest::Load(*env_, options_.dir, &data, &gen);
  if (s.IsNotFound()) {
    // Fresh directory: establish the initial manifest + WAL.
    wal_gen_ = 1;
    s = WriteManifest();
    if (!s.ok()) return s;
    wal_ = std::make_unique<LsmWal>(*env_, WalPath(wal_gen_));
    s = wal_->Open();
    if (!s.ok()) wal_.reset();
    return s;
  }
  // A corrupt manifest is not silently reinitialized — that would orphan
  // (and later GC) every table of the previous incarnation. The tree opens
  // empty and degraded (writes rejected), with the error surfaced.
  if (!s.ok()) return s;

  manifest_gen_ = gen;
  wal_gen_ = data.wal_gen;
  next_table_id_ = data.next_table_id;
  if (data.levels.size() > levels_.size()) levels_.resize(data.levels.size());
  std::set<uint64_t> live;
  for (size_t l = 0; l < data.levels.size(); ++l) {
    for (uint64_t id : data.levels[l]) {
      std::unique_ptr<SsTable> t;
      io::Status ts = OpenTable(id, &t);
      if (ts.ok()) {
        live.insert(id);
        levels_[l].push_back(std::move(t));
      } else {
        // Serve what remains (degraded): newer versions of these keys may
        // exist in other tables; readers fall through as with quarantines.
        obs_.recovery_bad_tables->Increment();
        obs::TraceEvent("lsm.recovery.bad_table");
        last_io_error_ = ts;
        live.insert(id);  // do not GC a file we failed to open
      }
    }
  }
  for (size_t l = 1; l < levels_.size(); ++l) {
    std::sort(levels_[l].begin(), levels_[l].end(),
              [](const auto& a, const auto& b) { return a->min_key < b->min_key; });
  }

  // Sweep orphans: tables no manifest references (written but never
  // committed), superseded manifests, stale WALs, and half-renamed temps.
  std::vector<std::string> dir_entries;
  if (env_->ListDir(options_.dir, &dir_entries).ok()) {
    const std::string current_manifest = LsmManifest::FileName(manifest_gen_);
    const std::string current_wal = "wal_" + std::to_string(wal_gen_);
    for (const std::string& e : dir_entries) {
      bool orphan = false;
      if (e.rfind("sst_", 0) == 0) {
        uint64_t id = ~0ull;
        if (!ParseTrailingId(e, "sst_", &id) || !live.count(id)) orphan = true;
      } else if (e.rfind("MANIFEST-", 0) == 0) {
        orphan = e != current_manifest;
      } else if (e.rfind("wal_", 0) == 0) {
        orphan = e != current_wal;
      } else if (e.size() > 4 && e.compare(e.size() - 4, 4, ".tmp") == 0) {
        orphan = true;
      }
      if (orphan && env_->Remove(options_.dir + "/" + e).ok()) {
        obs_.recovery_orphans_removed->Increment();
      }
    }
  }

  // Replay the WAL into the memtable; everything acked before the crash is
  // in here or in a manifest-committed table.
  uint64_t replayed = 0;
  bool torn = false;
  s = LsmWal::Replay(
      *env_, WalPath(wal_gen_),
      [this](std::string_view k, std::string_view v) { ApplyToMemtable(k, v); },
      &replayed, &torn);
  if (!s.ok()) {
    last_io_error_ = s;  // degraded: acked writes in the log may be lost
    obs::TraceEvent("lsm.recovery.wal_unreadable");
  }
  obs_.wal_replayed_records->Add(replayed);
  if (torn) {
    obs_.wal_torn_tails->Increment();
    obs::TraceEvent("lsm.recovery.wal_torn_tail");
  }

  if (!memtable_.empty()) {
    // Persist the replayed writes into a table and rotate to a fresh WAL in
    // one committed step. On failure the old WAL stays authoritative and
    // the tree opens degraded for writes (wal_ == nullptr).
    s = FlushMemTable();
    if (!s.ok()) return s;
    return MaybeCompact();
  }
  // Empty log: reuse the slot, truncating any torn garbage at its tail
  // (torn bytes are by definition unacked).
  wal_ = std::make_unique<LsmWal>(*env_, WalPath(wal_gen_));
  s = wal_->Open();
  if (!s.ok()) wal_.reset();
  return s;
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

void LsmTree::Quarantine(const SsTable& t, size_t block_idx) {
  CountEvent(&stats_.block_corruptions, obs_.block_corruptions);
  t.quarantined.insert(block_idx);
  obs::TraceEvent("lsm.block.quarantine");
}

std::string_view LsmTree::RawBlock::key(size_t i) const {
  const char* e = bytes.get() + offsets[i];
  return {e + sizeof(uint32_t), LoadU32(e)};
}

std::string_view LsmTree::RawBlock::value(size_t i) const {
  const char* e = bytes.get() + offsets[i];
  const char* v = e + sizeof(uint32_t) + LoadU32(e);
  return {v + sizeof(uint32_t), LoadU32(v)};
}

size_t LsmTree::RawBlock::LowerBound(std::string_view k) const {
  size_t lo = 0, hi = count();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (key(mid) < k) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

char* LsmTree::RawBlock::Prepare(size_t n) {
  if (n > capacity) {
    bytes = std::make_unique_for_overwrite<char[]>(n);
    capacity = n;
  }
  return bytes.get();
}

void LsmTree::RawBlock::CopyFrom(const RawBlock& src, size_t from, size_t to) {
  Clear();
  if (from == to) return;
  const uint32_t begin = src.offsets[from];
  const size_t end = to == src.count() ? src.size : src.offsets[to];
  std::memcpy(Prepare(end - begin), src.bytes.get() + begin, end - begin);
  size = end - begin;
  offsets.reserve(to - from);
  for (size_t i = from; i < to; ++i) offsets.push_back(src.offsets[i] - begin);
}

size_t LsmTree::CacheHome(uint64_t table_id, size_t block) const {
  uint64_t h = (table_id * 0x9E3779B97F4A7C15ull) ^ block;
  h = (h ^ (h >> 31)) * 0xBF58476D1CE4E5B9ull;
  return (h ^ (h >> 29)) & (cache_index_.size() - 1);
}

uint32_t LsmTree::CacheFind(uint64_t table_id, size_t block) const {
  const size_t mask = cache_index_.size() - 1;
  for (size_t i = CacheHome(table_id, block);; i = (i + 1) & mask) {
    const uint32_t slot = cache_index_[i];
    if (slot == kNoSlot ||
        (cache_[slot].table_id == table_id && cache_[slot].block == block))
      return slot;
  }
}

void LsmTree::CacheLink(uint32_t slot) {
  const size_t mask = cache_index_.size() - 1;
  size_t i = CacheHome(cache_[slot].table_id, cache_[slot].block);
  while (cache_index_[i] != kNoSlot) i = (i + 1) & mask;
  cache_index_[i] = slot;
}

void LsmTree::CacheUnlink(uint32_t slot) {
  const size_t mask = cache_index_.size() - 1;
  size_t hole = CacheHome(cache_[slot].table_id, cache_[slot].block);
  while (cache_index_[hole] != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole when their home position does not lie between the hole and them.
  for (size_t j = (hole + 1) & mask; cache_index_[j] != kNoSlot;
       j = (j + 1) & mask) {
    const CacheSlot& e = cache_[cache_index_[j]];
    const size_t home = CacheHome(e.table_id, e.block);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      cache_index_[hole] = cache_index_[j];
      hole = j;
    }
  }
  cache_index_[hole] = kNoSlot;
  cache_[slot].table_id = kNoTable;
  cache_[slot].referenced = false;
}

uint32_t LsmTree::CacheVictim() {
  if (!cache_free_.empty()) {
    const uint32_t slot = cache_free_.back();
    cache_free_.pop_back();
    return slot;
  }
  while (true) {
    const auto slot = static_cast<uint32_t>(cache_hand_);
    cache_hand_ = (cache_hand_ + 1) % cache_.size();
    if (!cache_[slot].referenced) {
      CacheUnlink(slot);
      return slot;
    }
    cache_[slot].referenced = false;
  }
}

bool LsmTree::ReadBlockDirect(const SsTable& t, size_t block_idx,
                              RawBlock* out, io::Status* status) {
  out->Clear();
  if (t.file == nullptr) {
    *status = io::Status::IoError("table file not open");
    return false;
  }
  const uint64_t off = t.block_offset[block_idx];
  const uint32_t len = t.block_length[block_idx];
  if (off + len + kBlockCrcBytes > t.data_bytes) {
    Quarantine(t, block_idx);
    return false;
  }
  char* p = out->Prepare(size_t{len} + kBlockCrcBytes);
  io::Status s = t.file->ReadFull(off, p, size_t{len} + kBlockCrcBytes);
  if (!s.ok()) {
    *status = s;
    return false;
  }
  if (io::Crc32c(p, size_t{len}) != LoadU32(p + len) ||
      !IndexBlock(std::string_view(p, len), &out->offsets)) {
    Quarantine(t, block_idx);
    return false;
  }
  out->size = len;
  return true;
}

const LsmTree::RawBlock* LsmTree::GetBlock(const SsTable& t,
                                           size_t block_idx) {
  if (t.quarantined.count(block_idx) != 0) return nullptr;
  uint32_t slot = CacheFind(t.id, block_idx);
  if (slot != kNoSlot) {
    cache_[slot].referenced = true;
    CountEvent(&stats_.block_cache_hits, obs_.block_cache_hits);
    return &cache_[slot].data;
  }
  CountEvent(&stats_.block_reads, obs_.block_reads);
  slot = CacheVictim();
  CacheSlot& victim = cache_[slot];
  io::Status s;
  if (!ReadBlockDirect(t, block_idx, &victim.data, &s)) {
    if (!s.ok()) {  // unreadable: quarantined like a corrupt block
      last_io_error_ = s;
      Quarantine(t, block_idx);
    }
    cache_free_.push_back(slot);
    return nullptr;
  }
  victim.table_id = t.id;
  victim.block = block_idx;
  victim.referenced = true;
  CacheLink(slot);
  return &victim.data;
}

bool LsmTree::FilterMayContain(const SsTable& t, std::string_view key) {
  if (t.bloom == nullptr && t.surf == nullptr) return true;
  CountEvent(&stats_.filter_probes, obs_.filter_probes);
  bool may = t.bloom != nullptr ? t.bloom->MayContain(key)
                                : t.surf->MayContain(key);
  if (!may) CountEvent(&stats_.filter_negatives, obs_.filter_negatives);
  return may;
}

bool LsmTree::TableGet(const SsTable& t, std::string_view key,
                       std::string* value) {
  if (key < t.min_key || key > t.max_key) return false;
  if (!FilterMayContain(t, key)) return false;
  const bool filtered = t.bloom != nullptr || t.surf != nullptr;
  const RawBlock* b = GetBlock(t, FenceBlock(t.block_first_key, key));
  if (b == nullptr) return false;  // quarantined: fall through to older
  const size_t i = b->LowerBound(key);
  const bool found = i < b->count() && b->key(i) == key;
  if (filtered) {
    // Resolve the filter's positive answer against the block: present keys
    // are true positives, absent ones false positives (live FPR).
    if (t.bloom != nullptr)
      (found ? obs_.bloom_true_positives : obs_.bloom_false_positives)
          ->Increment();
    else
      (found ? obs_.surf_true_positives : obs_.surf_false_positives)
          ->Increment();
  }
  if (!found) return false;
  if (value != nullptr) value->assign(b->value(i));
  return true;
}

bool LsmTree::Lookup(std::string_view key, std::string* value) {
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (value != nullptr) *value = it->second;
    return true;
  }
  // Probe order: L0 newest-first (components may overlap), then the single
  // range-covering table of each deeper level. TableGet skips a table whose
  // key range excludes `key` before its filter is probed.
  for (auto t = levels_[0].rbegin(); t != levels_[0].rend(); ++t)
    if (TableGet(**t, key, value)) return true;
  for (size_t l = 1; l < levels_.size(); ++l) {
    // Levels >= 1 are disjoint: binary search for the candidate table.
    const auto& level = levels_[l];
    auto lit = std::upper_bound(
        level.begin(), level.end(), key,
        [](std::string_view k, const auto& t) { return k < t->min_key; });
    if (lit == level.begin()) continue;
    if (TableGet(**--lit, key, value)) return true;
  }
  return false;
}

LsmTree::MergeCursor LsmTree::RangeCursor(
    std::string_view lk, std::optional<std::string_view> hk,
    std::vector<const SsTable*>* surf_tables) {
  // Sources oldest first: each level from the deepest up to L1 as one run
  // from its first table reaching lk, each L0 table reaching lk in creation
  // order, then the memtable. With hk, a run ends at the first table
  // starting past it.
  std::vector<std::unique_ptr<Cursor>> sources;
  sources.reserve(levels_.size() + levels_[0].size());
  auto add_run = [&](auto first, auto last) {
    std::vector<const SsTable*> run;
    run.reserve(last - first);
    for (; first != last && !(hk && (*first)->min_key > *hk); ++first) {
      if (surf_tables != nullptr && (*first)->surf != nullptr) {
        surf_tables->push_back(first->get());
      } else {
        run.push_back(first->get());
      }
    }
    if (!run.empty())
      sources.push_back(
          std::make_unique<RunCursor>(this, std::move(run), lk, false));
  };
  for (size_t l = levels_.size(); l-- > 1;) {
    const auto& level = levels_[l];
    add_run(std::lower_bound(level.begin(), level.end(), lk,
                             [](const auto& t, std::string_view k) {
                               return t->max_key < k;
                             }),
            level.end());
  }
  for (auto t = levels_[0].begin(); t != levels_[0].end(); ++t)
    if (lk <= (*t)->max_key) add_run(t, t + 1);
  sources.push_back(std::make_unique<MemCursor>(memtable_, lk));
  return MergeCursor(std::move(sources), hk);
}

std::optional<std::string> LsmTree::Seek(std::string_view lk) {
  MergeCursor c = RangeCursor(lk, std::nullopt);
  if (!c.Valid()) return std::nullopt;
  return std::string(c.key());
}

std::optional<std::string> LsmTree::ClosedSeek(std::string_view lk,
                                               std::string_view hk) {
  MergeCursor c = RangeCursor(lk, hk);
  if (!c.Valid()) return std::nullopt;
  return std::string(c.key());
}

void LsmTree::Scan(
    std::string_view lk,
    const std::function<bool(std::string_view, std::string_view)>& visitor) {
  for (MergeCursor c = RangeCursor(lk, std::nullopt); c.Valid(); c.Next())
    if (!visitor(c.key(), c.value())) break;
}

uint64_t LsmTree::Count(std::string_view lk, std::string_view hk) {
  // Exact over the memtable and the unfiltered tables: the merge yields
  // each key once, whatever stale versions older components hold. Each
  // SuRF table adds its in-memory estimate instead, with no I/O and no
  // dedup.
  std::vector<const SsTable*> surf_tables;
  uint64_t n = 0;
  for (MergeCursor c = RangeCursor(lk, hk, &surf_tables); c.Valid(); c.Next())
    ++n;
  for (const SsTable* t : surf_tables) {
    CountEvent(&stats_.filter_probes, obs_.filter_probes);
    n += t->surf->Count(lk, hk);
  }
  return n;
}

size_t LsmTree::FilterMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& level : levels_)
    for (const auto& t : level) {
      if (t->bloom != nullptr) bytes += t->bloom->MemoryBytes();
      if (t->surf != nullptr) bytes += t->surf->MemoryBytes();
    }
  return bytes;
}

namespace {

// Heap allocation behind a std::string (libstdc++ SSO threshold is 15).
size_t StrHeapBytes(const std::string& s) {
  return s.capacity() > 15 ? s.capacity() + 1 : 0;
}

}  // namespace

size_t LsmTree::MemoryBytes() const { return Breakdown().TotalBytes(); }

MemoryBreakdown LsmTree::Breakdown() const {
  MemoryBreakdown b("lsm");

  // Memtable: red-black tree node per entry (payload pair + ~3 pointers and
  // color word of the _Rb_tree node header) plus string heap.
  size_t memtable = 0;
  constexpr size_t kMapNodeOverhead = 4 * sizeof(void*);
  for (const auto& [k, v] : memtable_) {
    memtable += sizeof(std::pair<const std::string, std::string>) +
                kMapNodeOverhead + StrHeapBytes(k) + StrHeapBytes(v);
  }
  b.Add("memtable", memtable);

  // Per-table resident state, filters split out from fence/metadata.
  size_t metadata = 0, fences = 0, filters = 0;
  for (const auto& level : levels_) {
    for (const auto& t : level) {
      metadata += sizeof(SsTable) + StrHeapBytes(t->path) +
                  StrHeapBytes(t->min_key) + StrHeapBytes(t->max_key);
      fences += t->block_first_key.capacity() * sizeof(std::string) +
                t->block_offset.capacity() * sizeof(uint64_t) +
                t->block_length.capacity() * sizeof(uint32_t);
      for (const auto& fk : t->block_first_key) fences += StrHeapBytes(fk);
      if (t->bloom != nullptr) filters += t->bloom->MemoryBytes();
      if (t->surf != nullptr) filters += t->surf->MemoryBytes();
    }
  }
  b.Add("table_metadata", metadata);
  b.Add("fence_indexes", fences);
  b.Add("filters", filters);

  // Block cache: slots with their raw bytes and entry offsets, the hash
  // index and the free list.
  size_t cache = cache_.capacity() * sizeof(CacheSlot) +
                 (cache_index_.capacity() + cache_free_.capacity()) *
                     sizeof(uint32_t);
  for (const auto& slot : cache_)
    cache += slot.data.capacity +
             slot.data.offsets.capacity() * sizeof(uint32_t);
  b.Add("block_cache", cache);
  return b;
}

size_t LsmTree::NumTables() const {
  size_t n = 0;
  for (const auto& level : levels_) n += level.size();
  return n;
}

uint64_t LsmTree::DiskBytes() const {
  uint64_t bytes = 0;
  for (const auto& level : levels_)
    for (const auto& t : level) bytes += t->file_bytes;
  return bytes;
}

}  // namespace met
