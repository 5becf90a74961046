// Mini in-memory OLTP engine — the H-Store stand-in for the Chapter 5
// system evaluation and Table 1.1 (see DESIGN.md, "Documented
// substitutions"). Single-threaded partition executor over row tables with
// pluggable primary/secondary index structures (B+tree / Hybrid B+tree /
// Hybrid-Compressed B+tree) and an anti-caching component that evicts cold
// tuple payloads to disk when memory exceeds a budget, leaving in-memory
// tombstone markers that fault the tuple back in on access (Section 5.4.1).
#ifndef MET_MINIDB_MINIDB_H_
#define MET_MINIDB_MINIDB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "btree/btree.h"
#include "hybrid/hybrid.h"
#include "io/io.h"
#include "obs/obs.h"

namespace met {

/// Process-wide minidb metrics, shared by every MiniDb instance.
struct MiniDbObsMetrics {
  obs::Counter* transactions;
  obs::Counter* evictions;
  obs::Counter* anticache_fetches;
  obs::Counter* anticache_errors;  // failed evict appends / un-evict reads
  obs::Histogram* fetch_ns;       // per-tuple anti-cache fault latency
  obs::Histogram* evict_pass_ns;  // full eviction-pass latency
  obs::Histogram* evicted_per_pass;

  static const MiniDbObsMetrics& Get();
};

enum class IndexKind { kBTree, kHybrid, kHybridCompressed };

const char* IndexKindName(IndexKind k);

/// Uniform wrapper over the three index configurations of Figures 5.11-5.16.
class TableIndex {
 public:
  explicit TableIndex(IndexKind kind);

  /// False when the key is already present (Insert) or absent
  /// (Update, Remove); nothing changes then.
  bool Insert(uint64_t key, uint64_t tuple_id);
  bool Lookup(uint64_t key, uint64_t* tuple_id = nullptr) const;
  bool Update(uint64_t key, uint64_t tuple_id);
  bool Remove(uint64_t key);
  size_t Scan(uint64_t key, size_t n, std::vector<uint64_t>* out) const;
  size_t MemoryBytes() const;

 private:
  IndexKind kind_;
  std::unique_ptr<BTree<uint64_t>> btree_;
  std::unique_ptr<HybridBTree<uint64_t>> hybrid_;
  std::unique_ptr<HybridCompressedBTree<uint64_t>> compressed_;
};

/// A row table: payload heap + primary index + optional secondary indexes
/// (secondary keys are modeled as composite uint64s: high bits = secondary
/// attribute, low bits = a uniquifier).
class MiniTable {
 public:
  MiniTable(class MiniDb* db, std::string name, IndexKind kind,
            size_t num_secondary);

  /// Inserts a tuple; returns its id, or ~0 on primary-key violation.
  uint64_t Insert(uint64_t pk, std::string_view payload);
  bool InsertSecondary(size_t idx, uint64_t sk, uint64_t tuple_id);

  /// Reads the payload (faults in evicted tuples). False if pk absent or an
  /// evicted tuple could not be fetched back (it stays evicted; the failure
  /// is counted in minidb.anticache.errors).
  bool Get(uint64_t pk, std::string* payload = nullptr);
  bool GetByTupleId(uint64_t tuple_id, std::string* payload);
  bool Update(uint64_t pk, std::string_view payload);
  size_t ScanSecondary(size_t idx, uint64_t sk, size_t n,
                       std::vector<uint64_t>* tuple_ids) const;

  size_t TupleBytes() const { return tuple_bytes_; }
  size_t PrimaryIndexBytes() const { return primary_.MemoryBytes(); }
  size_t SecondaryIndexBytes() const;
  size_t num_tuples() const { return payloads_.size(); }
  const std::string& name() const { return name_; }

 private:
  friend class MiniDb;

  class MiniDb* db_;
  std::string name_;
  TableIndex primary_;
  std::vector<TableIndex> secondary_;
  std::vector<std::string> payloads_;   // empty when evicted
  std::vector<uint8_t> evicted_;
  std::vector<uint64_t> evict_offset_;  // offset in the anti-cache file
  std::vector<uint32_t> evict_length_;
  size_t tuple_bytes_ = 0;
  uint64_t clock_hand_ = 0;  // eviction cursor (oldest-first approximation)
};

/// Per-instance statistics — a thin view kept for API compatibility.
/// Process-wide aggregates plus anti-cache eviction/fetch latency
/// histograms live in the obs::MetricsRegistry under "minidb.*"
/// (see MiniDbObsMetrics in minidb.cc).
struct MiniDbStats {
  uint64_t transactions = 0;
  uint64_t evictions = 0;
  uint64_t anticache_fetches = 0;
  uint64_t anticache_errors = 0;  // I/O failures surfaced instead of aborting
};

class MiniDb {
 public:
  /// `env` routes all anti-cache I/O (nullptr = io::Env::Posix()); tests
  /// plug in an io::FaultyEnv to exercise the failure paths.
  explicit MiniDb(IndexKind kind, std::string anticache_path = "",
                  io::Env* env = nullptr);
  ~MiniDb();

  MiniDb(const MiniDb&) = delete;
  MiniDb& operator=(const MiniDb&) = delete;

  MiniTable* CreateTable(const std::string& name, size_t num_secondary = 0);
  MiniTable* GetTable(const std::string& name);

  /// Enables anti-caching: whenever total memory exceeds `budget_bytes`,
  /// cold tuple payloads are evicted to disk until usage drops below it.
  void EnableAntiCaching(size_t budget_bytes);
  void MaybeEvict();

  size_t TupleBytes() const;
  size_t PrimaryIndexBytes() const;
  size_t SecondaryIndexBytes() const;
  size_t TotalMemoryBytes() const {
    return TupleBytes() + PrimaryIndexBytes() + SecondaryIndexBytes();
  }

  IndexKind index_kind() const { return kind_; }
  MiniDbStats& stats() { return stats_; }

 private:
  friend class MiniTable;

  /// Appends the payload to the anti-cache file; false on I/O failure (the
  /// tuple then stays resident — eviction is always safe to skip). The
  /// logical offset only advances on success, so a failed append's partial
  /// bytes are overwritten by the next attempt.
  bool AppendToAntiCache(std::string_view payload, uint64_t* offset);
  /// Reads an evicted payload back; false on I/O failure (short/EINTR reads
  /// are retried by the met::io layer; persistent failure bumps
  /// minidb.anticache.errors instead of asserting).
  bool FetchFromAntiCache(uint64_t offset, uint32_t length, std::string* out);

  IndexKind kind_;
  std::vector<std::unique_ptr<MiniTable>> tables_;
  size_t anticache_budget_ = 0;  // 0 = disabled
  std::string anticache_path_;
  io::Env* env_ = nullptr;
  std::unique_ptr<io::File> anticache_file_;
  uint64_t anticache_size_ = 0;
  uint64_t evict_check_tick_ = 0;
  MiniDbStats stats_;
};

}  // namespace met

#endif  // MET_MINIDB_MINIDB_H_
