#include "minidb/minidb.h"

#include <unistd.h>

#include "common/assert.h"
#include "obs/obs.h"

namespace met {

const MiniDbObsMetrics& MiniDbObsMetrics::Get() {
  static const MiniDbObsMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    return MiniDbObsMetrics{
        reg.GetCounter("minidb.txn.count"),
        reg.GetCounter("minidb.anticache.evictions"),
        reg.GetCounter("minidb.anticache.fetches"),
        reg.GetCounter("minidb.anticache.errors"),
        reg.GetHistogram("minidb.anticache.fetch_ns"),
        reg.GetHistogram("minidb.anticache.evict_pass_ns"),
        reg.GetHistogram("minidb.anticache.evicted_per_pass"),
    };
  }();
  return m;
}

const char* IndexKindName(IndexKind k) {
  switch (k) {
    case IndexKind::kBTree:
      return "B+tree";
    case IndexKind::kHybrid:
      return "Hybrid";
    case IndexKind::kHybridCompressed:
      return "Hybrid-Compressed";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TableIndex
// ---------------------------------------------------------------------------

TableIndex::TableIndex(IndexKind kind) : kind_(kind) {
  switch (kind) {
    case IndexKind::kBTree:
      btree_ = std::make_unique<BTree<uint64_t>>();
      break;
    case IndexKind::kHybrid:
      hybrid_ = std::make_unique<HybridBTree<uint64_t>>();
      break;
    case IndexKind::kHybridCompressed:
      compressed_ = std::make_unique<HybridCompressedBTree<uint64_t>>();
      break;
  }
}

bool TableIndex::Insert(uint64_t key, uint64_t tuple_id) {
  switch (kind_) {
    case IndexKind::kBTree:
      return btree_->Insert(key, tuple_id);
    case IndexKind::kHybrid:
      return hybrid_->Insert(key, tuple_id);
    case IndexKind::kHybridCompressed:
      return compressed_->Insert(key, tuple_id);
  }
  return false;
}

bool TableIndex::Lookup(uint64_t key, uint64_t* tuple_id) const {
  switch (kind_) {
    case IndexKind::kBTree:
      return btree_->Lookup(key, tuple_id);
    case IndexKind::kHybrid:
      return hybrid_->Lookup(key, tuple_id);
    case IndexKind::kHybridCompressed:
      return compressed_->Lookup(key, tuple_id);
  }
  return false;
}

bool TableIndex::Update(uint64_t key, uint64_t tuple_id) {
  switch (kind_) {
    case IndexKind::kBTree:
      return btree_->Update(key, tuple_id);
    case IndexKind::kHybrid:
      return hybrid_->Update(key, tuple_id);
    case IndexKind::kHybridCompressed:
      return compressed_->Update(key, tuple_id);
  }
  return false;
}

bool TableIndex::Remove(uint64_t key) {
  switch (kind_) {
    case IndexKind::kBTree:
      return btree_->Erase(key);
    case IndexKind::kHybrid:
      return hybrid_->Erase(key);
    case IndexKind::kHybridCompressed:
      return compressed_->Erase(key);
  }
  return false;
}

size_t TableIndex::Scan(uint64_t key, size_t n,
                        std::vector<uint64_t>* out) const {
  switch (kind_) {
    case IndexKind::kBTree:
      return btree_->Scan(key, n, out);
    case IndexKind::kHybrid:
      return hybrid_->Scan(key, n, out);
    case IndexKind::kHybridCompressed:
      return compressed_->Scan(key, n, out);
  }
  return 0;
}

size_t TableIndex::MemoryBytes() const {
  switch (kind_) {
    case IndexKind::kBTree:
      return btree_->MemoryBytes();
    case IndexKind::kHybrid:
      return hybrid_->MemoryBytes();
    case IndexKind::kHybridCompressed:
      return compressed_->MemoryBytes();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// MiniTable
// ---------------------------------------------------------------------------

MiniTable::MiniTable(MiniDb* db, std::string name, IndexKind kind,
                     size_t num_secondary)
    : db_(db), name_(std::move(name)), primary_(kind) {
  for (size_t i = 0; i < num_secondary; ++i) secondary_.emplace_back(kind);
}

uint64_t MiniTable::Insert(uint64_t pk, std::string_view payload) {
  uint64_t tuple_id = payloads_.size();
  if (!primary_.Insert(pk, tuple_id)) return ~0ull;
  payloads_.emplace_back(payload);
  evicted_.push_back(0);
  evict_offset_.push_back(0);
  evict_length_.push_back(0);
  tuple_bytes_ += payloads_.back().capacity();
  return tuple_id;
}

bool MiniTable::InsertSecondary(size_t idx, uint64_t sk, uint64_t tuple_id) {
  return secondary_[idx].Insert(sk, tuple_id);
}

bool MiniTable::Get(uint64_t pk, std::string* payload) {
  uint64_t tid;
  if (!primary_.Lookup(pk, &tid)) return false;
  return GetByTupleId(tid, payload);
}

bool MiniTable::Update(uint64_t pk, std::string_view payload) {
  uint64_t tid;
  if (!primary_.Lookup(pk, &tid)) return false;
  std::string& slot = payloads_[tid];
  tuple_bytes_ -= slot.capacity();
  if (evicted_[tid]) evicted_[tid] = 0;  // overwrite resurrects the tuple
  slot.assign(payload);
  tuple_bytes_ += slot.capacity();
  return true;
}

size_t MiniTable::ScanSecondary(size_t idx, uint64_t sk, size_t n,
                                std::vector<uint64_t>* tuple_ids) const {
  return secondary_[idx].Scan(sk, n, tuple_ids);
}

size_t MiniTable::SecondaryIndexBytes() const {
  size_t bytes = 0;
  for (const auto& s : secondary_) bytes += s.MemoryBytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// MiniDb
// ---------------------------------------------------------------------------

MiniDb::MiniDb(IndexKind kind, std::string anticache_path, io::Env* env)
    : kind_(kind),
      anticache_path_(anticache_path.empty()
                          ? "/tmp/met_minidb_anticache_" +
                                std::to_string(::getpid())
                          : std::move(anticache_path)),
      env_(env != nullptr ? env : &io::Env::Posix()) {}

MiniDb::~MiniDb() {
  if (anticache_file_ != nullptr) {
    (void)anticache_file_->Close();  // best-effort teardown of scratch state
    anticache_file_.reset();
    (void)env_->Remove(anticache_path_);  // ditto; file is disposable
  }
}

MiniTable* MiniDb::CreateTable(const std::string& name, size_t num_secondary) {
  tables_.push_back(
      std::make_unique<MiniTable>(this, name, kind_, num_secondary));
  return tables_.back().get();
}

MiniTable* MiniDb::GetTable(const std::string& name) {
  for (auto& t : tables_)
    if (t->name() == name) return t.get();
  return nullptr;
}

void MiniDb::EnableAntiCaching(size_t budget_bytes) {
  anticache_budget_ = budget_bytes;
  if (anticache_file_ == nullptr) {
    io::Status s = env_->NewFile(anticache_path_, io::OpenMode::kReadWrite,
                                 &anticache_file_);
    if (!s.ok()) {
      // No file, no eviction: tuples simply stay resident. Surfaced as an
      // error count rather than an abort.
      ++stats_.anticache_errors;
      MiniDbObsMetrics::Get().anticache_errors->Increment();
      anticache_file_.reset();
    }
  }
}

bool MiniDb::AppendToAntiCache(std::string_view payload, uint64_t* offset) {
  if (anticache_file_ == nullptr) return false;
  io::Status s = anticache_file_->WriteFull(anticache_size_, payload);
  if (!s.ok()) {
    ++stats_.anticache_errors;
    MiniDbObsMetrics::Get().anticache_errors->Increment();
    return false;  // offset not advanced: the next attempt overwrites
  }
  *offset = anticache_size_;
  anticache_size_ += payload.size();
  return true;
}

bool MiniDb::FetchFromAntiCache(uint64_t offset, uint32_t length,
                                std::string* out) {
  const MiniDbObsMetrics& m = MiniDbObsMetrics::Get();
  obs::ScopedTimer span(m.fetch_ns);
  if (anticache_file_ == nullptr) return false;
  out->resize(length);
  io::Status s = anticache_file_->ReadFull(offset, out->data(), length);
  if (!s.ok()) {
    ++stats_.anticache_errors;
    m.anticache_errors->Increment();
    return false;
  }
  ++stats_.anticache_fetches;
  m.anticache_fetches->Increment();
  return true;
}

bool MiniTable::GetByTupleId(uint64_t tuple_id, std::string* payload) {
  if (tuple_id >= payloads_.size()) return false;
  if (evicted_[tuple_id]) {
    // Anti-caching fault: fetch the payload back from disk and restore it
    // (H-Store aborts + restarts the transaction; we model the data motion).
    // On I/O failure the tuple stays evicted — the payload is still intact
    // on disk, so a later access can retry once the fault clears.
    std::string restored;
    if (!db_->FetchFromAntiCache(evict_offset_[tuple_id],
                                 evict_length_[tuple_id], &restored)) {
      return false;
    }
    payloads_[tuple_id] = std::move(restored);
    evicted_[tuple_id] = 0;
    tuple_bytes_ += payloads_[tuple_id].capacity();
  }
  if (payload != nullptr) *payload = payloads_[tuple_id];
  return true;
}

void MiniDb::MaybeEvict() {
  if (anticache_budget_ == 0) return;
  // Memory accounting walks the index trees (O(n)); checking the budget on
  // every transaction would be quadratic. H-Store's eviction manager also
  // checks periodically (Section 5.4.4).
  if (evict_check_tick_++ % 256 != 0) return;
  // Index memory only changes with the workload, not with evictions, so
  // walk the index trees once and track tuple bytes incrementally while
  // evicting (TupleBytes() is O(#tables)).
  size_t index_bytes = PrimaryIndexBytes() + SecondaryIndexBytes();
  if (TupleBytes() + index_bytes <= anticache_budget_) return;
  const MiniDbObsMetrics& m = MiniDbObsMetrics::Get();
  obs::ScopedTimer span(m.evict_pass_ns, "minidb.evict_pass");
  const uint64_t evictions_before = stats_.evictions;
  // Evict cold payloads table by table, oldest tuples first (insertion order
  // approximates coldness under the skewed OLTP access pattern).
  bool io_failed = false;
  for (auto& t : tables_) {
    while (TupleBytes() + index_bytes > anticache_budget_ &&
           t->clock_hand_ < t->payloads_.size()) {
      uint64_t id = t->clock_hand_++;
      if (t->evicted_[id] || t->payloads_[id].empty()) continue;
      std::string& slot = t->payloads_[id];
      uint64_t off = 0;
      if (!AppendToAntiCache(slot, &off)) {
        // Disk is misbehaving: abandon this pass (every tuple stays
        // resident and readable); the next pass retries.
        --t->clock_hand_;
        io_failed = true;
        break;
      }
      t->evict_offset_[id] = off;
      t->evict_length_[id] = static_cast<uint32_t>(slot.size());
      t->evicted_[id] = 1;
      t->tuple_bytes_ -= slot.capacity();
      std::string().swap(slot);
      ++stats_.evictions;
    }
    if (io_failed || TupleBytes() + index_bytes <= anticache_budget_) break;
  }
  const uint64_t evicted = stats_.evictions - evictions_before;
  m.evictions->Add(evicted);
  m.evicted_per_pass->Record(evicted);
}

size_t MiniDb::TupleBytes() const {
  size_t bytes = 0;
  for (const auto& t : tables_) bytes += t->TupleBytes();
  return bytes;
}

size_t MiniDb::PrimaryIndexBytes() const {
  size_t bytes = 0;
  for (const auto& t : tables_) bytes += t->PrimaryIndexBytes();
  return bytes;
}

size_t MiniDb::SecondaryIndexBytes() const {
  size_t bytes = 0;
  for (const auto& t : tables_) bytes += t->SecondaryIndexBytes();
  return bytes;
}

}  // namespace met
