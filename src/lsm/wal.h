// Write-ahead log for the LSM memtable (durable mode).
//
// Every Put appends one record before touching the memtable; records become
// durable ("acked") at the next fsync — LsmTree batches those with group
// sync. On open, Replay() feeds every intact record back into the memtable.
//
// Record format (little-endian):
//   [crc u32][klen u32][vlen u32][key bytes][value bytes]
// where crc = CRC32C over everything after the crc field. Replay stops at
// the first truncated or checksum-failing record: a crash can tear the tail
// of the log, and everything before the tear is still recovered (torn-tail
// tolerance). A record that failed to append completely poisons the tail
// (`tail_torn()`): further appends would land after garbage and be
// unreachable at replay, so the log refuses them until the tree rotates to
// a fresh WAL at the next flush.
//
// Threading: single-owner, with no internal locking. Only the owning
// LsmTree calls it, from the one thread that owns the tree (a served LSM's
// shard thread). Group commit is that thread syncing once for many appends
// (every wal_group_sync_bytes, or per served batch through
// LsmTree::SyncWal()), not concurrent appenders.
#ifndef MET_LSM_WAL_H_
#define MET_LSM_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "io/io.h"
#include "io/status.h"

namespace met {

class LsmWal {
 public:
  LsmWal(io::Env& env, std::string path) : env_(env), path_(std::move(path)) {}

  /// Creates (truncating) the log for appending. Callers must Replay() any
  /// existing content first — LsmTree only reuses a WAL slot after flushing
  /// its replayed records, so truncation discards only unacked torn bytes.
  io::Status Open();

  /// Appends one record. On a partial append the tail is poisoned and every
  /// later Append fails until the log is rotated.
  io::Status Append(std::string_view key, std::string_view value);

  /// fsync with retry; on success all previously appended records are acked.
  io::Status Sync();

  io::Status Close();

  /// Closes the underlying file WITHOUT a final sync — models a crash
  /// (SimulateCrash): appended-but-unsynced bytes may or may not survive.
  void AbandonForCrash();

  const std::string& path() const { return path_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  bool tail_torn() const { return tail_torn_; }

  /// Replays every intact record of the log at `path` through `fn` in append
  /// order. A missing file is an empty log (OK). `*torn_tail` reports whether
  /// trailing bytes were discarded (truncated/corrupt final record).
  static io::Status Replay(
      io::Env& env, const std::string& path,
      const std::function<void(std::string_view key, std::string_view value)>&
          fn,
      uint64_t* replayed_records, bool* torn_tail);

 private:
  io::Env& env_;
  std::string path_;
  std::unique_ptr<io::File> file_;
  uint64_t appended_bytes_ = 0;
  uint64_t unsynced_bytes_ = 0;
  bool tail_torn_ = false;
};

}  // namespace met

#endif  // MET_LSM_WAL_H_
