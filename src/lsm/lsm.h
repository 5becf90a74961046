// Mini log-structured merge engine — the RocksDB stand-in for the Chapter 4
// system evaluation (see DESIGN.md, "Documented substitutions").
//
// Architecture mirrors Figure 4.2: an in-memory MemTable absorbs writes and
// flushes to sorted, block-structured SSTable files in level 0; leveled
// compaction keeps levels >= 1 sorted and non-overlapping. Each SSTable has
// an in-memory fence (block) index and an optional filter (Bloom or SuRF)
// that is consulted before any block I/O, exactly like Figure 4.3's Get /
// Seek / Count execution paths. "I/O" is counted as block-cache misses that
// hit the data file.
//
// Storage robustness (DESIGN.md, "Durability & fault injection"): all file
// access goes through met::io (EINTR/short-transfer loops, transient-error
// retry, fault injection); every block carries a CRC32C trailer and a
// checksum-failing block is quarantined — the read falls through to older
// levels instead of aborting. In durable mode (LsmOptions::durable or
// LsmTree::Open) a write-ahead log covers the memtable and a versioned
// MANIFEST records the live tables, so reopening the directory recovers to
// the last durable state after a crash. The default remains the historical
// ephemeral behavior: files are private to the instance and removed on
// destruction, with no WAL/MANIFEST overhead.
#ifndef MET_LSM_LSM_H_
#define MET_LSM_LSM_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "io/io.h"
#include "io/status.h"
#include "obs/obs.h"
#include "prof/memory_breakdown.h"
#include "surf/surf.h"

namespace met {

class LsmWal;

enum class LsmFilterType { kNone, kBloom, kSurfHash, kSurfReal };

const char* LsmFilterTypeName(LsmFilterType t);

struct LsmOptions {
  std::string dir = "/tmp/met_lsm";
  size_t memtable_bytes = 4u << 20;
  size_t block_bytes = 4096;
  size_t sstable_target_bytes = 8u << 20;
  size_t level0_table_limit = 4;
  size_t level1_bytes = 32u << 20;
  size_t level_multiplier = 10;
  size_t block_cache_blocks = 4096;  // ~16 MB with 4 KB blocks

  LsmFilterType filter = LsmFilterType::kNone;
  double bloom_bits_per_key = 14.0;
  uint32_t surf_suffix_bits = 4;  // hash or real, by filter type

  /// Environment all file I/O goes through; nullptr = io::Env::Posix().
  /// Tests and the crash-torture harness plug in an io::FaultyEnv here.
  io::Env* env = nullptr;

  /// Durable mode: WAL + MANIFEST + fsync'd tables; the directory survives
  /// the instance and is recovered on the next open. When false (default)
  /// the tree is ephemeral: no logging, files removed on destruction.
  bool durable = false;

  /// Group-fsync threshold: the WAL is synced once at least this many bytes
  /// have been appended since the last sync (plus on demand via SyncWal()).
  size_t wal_group_sync_bytes = 64u << 10;

  /// Soft cap checked by Validate(): total open table files per tree.
  size_t max_open_files = 4096;
};

/// Per-tree event counts, for the per-tree I/O figures (Figs 4.8/4.9) and
/// tests, which reset and read them per tree. Owner thread only: every
/// event is also counted, as it happens, in its process-wide LsmObsMetrics
/// counter, which is what a dump from another thread reads.
struct LsmStats {
  uint64_t block_reads = 0;  // disk block fetches (cache misses)
  uint64_t block_cache_hits = 0;
  uint64_t filter_probes = 0;
  uint64_t filter_negatives = 0;  // I/Os saved by a filter
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_syncs = 0;
  uint64_t block_corruptions = 0;  // checksum failures => quarantined
};

/// Process-wide LSM metrics, shared by every LsmTree and updated where each
/// event happens. Filter probes with a positive answer are classified after
/// the block search resolves them: key present => true positive, absent =>
/// false positive, giving a live false-positive rate fp / (tp + fp) per
/// filter family.
struct LsmObsMetrics {
  obs::Counter* block_reads;
  obs::Counter* block_cache_hits;
  obs::Counter* flushes;
  obs::Counter* compactions;
  obs::Counter* filter_probes;
  obs::Counter* filter_negatives;
  obs::Counter* bloom_true_positives;
  obs::Counter* bloom_false_positives;
  obs::Counter* surf_true_positives;
  obs::Counter* surf_false_positives;
  obs::Counter* wal_appends;
  obs::Counter* wal_syncs;
  obs::Counter* wal_replayed_records;
  obs::Counter* wal_torn_tails;
  obs::Counter* manifest_writes;
  obs::Counter* block_corruptions;
  obs::Counter* recovery_orphans_removed;
  obs::Counter* recovery_bad_tables;
  obs::Histogram* flush_ns;
  obs::Histogram* compaction_ns;
  obs::Histogram* compaction_entries;

  static const LsmObsMetrics& Get();
};

class LsmTree {
 public:
  explicit LsmTree(const LsmOptions& options);
  ~LsmTree();

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  /// Opens (or creates) a durable tree in options.dir, recovering the last
  /// durable state: live tables from the MANIFEST, then WAL replay into the
  /// memtable. Forces options.durable = true. A failed recovery still
  /// returns a tree (possibly degraded — see last_io_error()); `status`
  /// reports the outcome when non-null.
  static std::unique_ptr<LsmTree> Open(LsmOptions options,
                                       io::Status* status = nullptr);

  /// Applies the write. OK means the write is applied in memory (and, in
  /// durable mode, appended to the WAL — durable after the next sync); an
  /// error means it was not applied at all. Background work this Put
  /// triggered (group sync, flush, compaction) reports failures through
  /// last_io_error() instead, keeping the tree readable and retryable.
  io::Status Put(std::string_view key, std::string_view value);

  /// Unified point lookup (Figure 4.3, Get execution path).
  bool Lookup(std::string_view key, std::string* value = nullptr);

  /// Open seek: smallest key >= `lk` across all levels; nullopt at end.
  std::optional<std::string> Seek(std::string_view lk);

  /// Closed seek: smallest key in [lk, hk]; nullopt if the range is empty.
  std::optional<std::string> ClosedSeek(std::string_view lk,
                                        std::string_view hk);

  /// Ordered scan: calls visitor(key, value) for every key >= `lk`, in key
  /// order, with its newest value, until the visitor returns false. Values
  /// are passed through as stored (an empty value is not special here).
  /// Both views are valid only during the call, and the visitor must not
  /// modify the tree.
  void Scan(std::string_view lk,
            const std::function<bool(std::string_view key,
                                     std::string_view value)>& visitor);

  /// Count of distinct keys in [lk, hk]: exact without SuRF (the merged
  /// components count each key once); approximate with SuRF, whose tables
  /// answer from the filter with no I/O.
  uint64_t Count(std::string_view lk, std::string_view hk);

  /// Flushes the memtable and compacts until all level limits hold.
  io::Status Finish();

  /// Durable mode: fsyncs the WAL now, acking every Put so far. No-op
  /// (OK) when not durable.
  io::Status SyncWal();

  /// Simulates `kill -9`: drops all file handles without syncing, flushing,
  /// or cleaning up, and marks the tree crashed (writes fail, destructor
  /// leaves the directory untouched). Reopen with LsmTree::Open to recover.
  void SimulateCrash();

  /// Most recent I/O failure from background work (flush, compaction, group
  /// sync, recovery) — sticky until cleared.
  const io::Status& last_io_error() const { return last_io_error_; }

  bool durable() const { return options_.durable; }

  const LsmStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LsmStats{}; }

  size_t FilterMemoryBytes() const;
  size_t NumTables() const;
  size_t NumLevels() const { return levels_.size(); }
  uint64_t DiskBytes() const;

  /// Total resident (in-memory) footprint: memtable, per-table metadata and
  /// fence indexes, filters, and the block cache. Excludes DiskBytes().
  size_t MemoryBytes() const;

  /// Component attribution: memtable, table_metadata, fence_indexes,
  /// filters, and block_cache (slots with their raw block bytes and entry
  /// offsets, the hash index and the free list). TotalBytes() ==
  /// MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const;

  /// Verifies level ordering rules (L0 keys per-table sorted; levels >= 1
  /// sorted and non-overlapping), per-table fence-index monotonicity, and
  /// min/max-key bounds. No-op unless MET_CHECK_ENABLED (impl in
  /// check/lsm_check.cc).
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return CheckValidate(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  bool CheckValidate(std::ostream& os) const;  // check/lsm_check.cc
  friend struct check::TestAccess;

  struct SsTable {
    uint64_t id;
    std::string path;
    std::string min_key, max_key;
    uint64_t file_bytes = 0;  // total file size (blocks + footer + trailer)
    uint64_t data_bytes = 0;  // end of the block region (footer offset)
    uint64_t num_entries = 0;
    // Fence index: first key of each block + payload offset/length. The
    // on-disk block is payload followed by a 4-byte CRC32C trailer.
    std::vector<std::string> block_first_key;
    std::vector<uint64_t> block_offset;
    std::vector<uint32_t> block_length;
    std::unique_ptr<BloomFilter> bloom;
    std::unique_ptr<Surf> surf;
    std::unique_ptr<io::File> file;
    // Blocks that failed their checksum: never re-read, reads fall through
    // to older levels (graceful degradation).
    mutable std::set<size_t> quarantined;
  };

  /// One verified block payload, searched in place: the bytes exactly as
  /// stored on disk plus the start offset of each entry. The buffer is
  /// reused across reads and grows to exactly the largest block it has held,
  /// never by doubling.
  struct RawBlock {
    std::unique_ptr<char[]> bytes;
    size_t capacity = 0;  // bytes allocated
    size_t size = 0;      // payload length
    std::vector<uint32_t> offsets;

    size_t count() const { return offsets.size(); }
    std::string_view key(size_t i) const;
    std::string_view value(size_t i) const;
    /// First entry whose key is >= k (count() when none).
    size_t LowerBound(std::string_view k) const;
    /// Room for n bytes at bytes.get(), growing to exactly n.
    char* Prepare(size_t n);
    void Clear() {
      size = 0;
      offsets.clear();
    }
    /// Replaces this block with entries [from, to) of `src`.
    void CopyFrom(const RawBlock& src, size_t from, size_t to);
  };
  using MemTable = std::map<std::string, std::string, std::less<>>;

  // Streaming merge (DESIGN.md, "LSM merge cursor and table builder"):
  // sorted sources (the memtable, runs of table blocks) merged newest-wins,
  // streamed into a TableBuilder or read by a range read, so no path
  // materializes a table.
  class Cursor;
  class MemCursor;
  class RunCursor;
  class MergeCursor;
  class TableBuilder;

  io::Status FlushMemTable();
  io::Status MaybeCompact();
  io::Status CompactLevel0();
  io::Status CompactLevel(size_t level);
  /// Merges `upper` (tables of `level`, oldest first) with `lower` (the
  /// overlapping tables of level + 1, in key order) into new level + 1
  /// tables, then commits: the MANIFEST names the outputs before any input
  /// file is removed. On a failed write the inputs stay untouched.
  io::Status Compact(size_t level, const std::vector<const SsTable*>& upper,
                     const std::vector<const SsTable*>& lower);

  /// nullptr when the block is quarantined (checksum failure, broken
  /// structure or unreadable) — callers treat that as "no entries here" and
  /// fall through. The block lives in a cache slot that the next GetBlock
  /// call may overwrite: never hold the pointer across another GetBlock.
  const RawBlock* GetBlock(const SsTable& t, size_t block_idx);
  void Quarantine(const SsTable& t, size_t block_idx);
  /// Reads one block straight from the file into *out, checks its CRC32C
  /// and records its entry offsets (the structural check). A corrupt block
  /// is quarantined and yields false with an OK *status; a file-level I/O
  /// failure sets *status. *out is empty after a false return.
  bool ReadBlockDirect(const SsTable& t, size_t block_idx, RawBlock* out,
                       io::Status* status);
  /// Point read of one table: key-range test, filter probe, block read.
  bool TableGet(const SsTable& t, std::string_view key, std::string* value);
  /// Point filter check: true = must read, false = certainly absent.
  bool FilterMayContain(const SsTable& t, std::string_view key);

  /// The one range-read path (Seek, ClosedSeek, Scan, Count): every source
  /// reaching `lk` under a MergeCursor that stops past `hk` when set. A
  /// table starts unopened, so the cursor reads a table's block only when
  /// its lower bound (min_key, or its SuRF's MoveToNext(lk)) is the
  /// smallest head. With `surf_tables` (Count), SuRF tables overlapping
  /// [lk, hk] are listed there instead of read.
  MergeCursor RangeCursor(std::string_view lk,
                          std::optional<std::string_view> hk,
                          std::vector<const SsTable*>* surf_tables = nullptr);

  // --- durability internals ---
  /// Builds the configured filter over a table's sorted keys.
  void BuildFilter(SsTable* t, const std::vector<std::string>& keys) const;
  /// Opens an existing table by id: reads trailer + footer (both
  /// checksummed), reconstructs the fence index, and rebuilds the filter
  /// from block data. A table with corrupt blocks keeps filter = null (a
  /// partial filter would return false negatives).
  io::Status OpenTable(uint64_t id, std::unique_ptr<SsTable>* out);
  /// Manifest write reflecting the current in-memory levels; bumps the
  /// manifest generation. Durable mode only.
  io::Status WriteManifest();
  /// Full recovery: manifest -> tables -> orphan GC -> WAL replay. Durable
  /// mode only; called from the constructor.
  io::Status Recover();
  void ApplyToMemtable(std::string_view key, std::string_view value);
  void CloseAndRemoveFile(SsTable& t);
  std::string TablePath(uint64_t id) const {
    return options_.dir + "/sst_" + std::to_string(id);
  }
  std::string WalPath(uint64_t gen) const {
    return options_.dir + "/wal_" + std::to_string(gen);
  }

  LsmOptions options_;
  io::Env* env_ = nullptr;
  MemTable memtable_;
  size_t memtable_bytes_ = 0;
  // levels_[0] may overlap (newest last); levels_[>=1] sorted, disjoint.
  std::vector<std::vector<std::unique_ptr<SsTable>>> levels_;
  uint64_t next_table_id_ = 0;
  std::vector<size_t> compact_cursor_;  // per-level rotating victim cursor
  LsmStats stats_;

  std::unique_ptr<LsmWal> wal_;
  uint64_t wal_gen_ = 0;
  uint64_t manifest_gen_ = 0;
  bool crashed_ = false;
  io::Status last_io_error_;

  // Counts one event in this tree's stats_ and in the process-wide counter.
  static void CountEvent(uint64_t* stat, obs::Counter* counter) {
    ++*stat;
    counter->Increment();
  }
  const LsmObsMetrics& obs_ = LsmObsMetrics::Get();

  // Block cache (DESIGN.md, "Block cache"): CLOCK over slots holding
  // verified raw blocks, found through an open-addressing hash index on
  // (table_id, block). A miss evicts first and reads straight into the
  // victim's buffer; a removed table's slots go on the free list.
  static constexpr uint64_t kNoTable = ~uint64_t{0};
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  struct CacheSlot {
    uint64_t table_id = kNoTable;
    size_t block = 0;
    bool referenced = false;
    RawBlock data;
  };
  /// Slot holding (table_id, block), or kNoSlot.
  uint32_t CacheFind(uint64_t table_id, size_t block) const;
  /// Takes a free slot, else evicts the CLOCK victim; the slot returned is
  /// unlinked, marked free and not on the free list.
  uint32_t CacheVictim();
  void CacheLink(uint32_t slot);
  /// Removes a linked slot from the index and marks it free; its buffer is
  /// kept for the next fill.
  void CacheUnlink(uint32_t slot);
  size_t CacheHome(uint64_t table_id, size_t block) const;

  std::vector<CacheSlot> cache_;
  std::vector<uint32_t> cache_index_;  // slot numbers; kNoSlot = empty
  std::vector<uint32_t> cache_free_;   // free slots, taken before CLOCK
  size_t cache_hand_ = 0;
};

}  // namespace met

#endif  // MET_LSM_LSM_H_
