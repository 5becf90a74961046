// Crash-recovery and graceful-degradation tests for the durable LSM mode:
// WAL replay, manifest recovery, checksum quarantine with fall-through, and
// the short-write regression pins for the storage layer.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "io/crc32c.h"
#include "io/fault_env.h"
#include "io/io.h"
#include "lsm/lsm.h"
#include "lsm/manifest.h"
#include "lsm/wal.h"
#include "minidb/minidb.h"
#include "gtest/gtest.h"

namespace met {
namespace {

std::string TestDir(const char* name) {
  return std::string("/tmp/met_lsm_recovery_test_") + name;
}

LsmOptions TinyDurable(const std::string& dir, io::Env* env = nullptr) {
  LsmOptions opt;
  opt.dir = dir;
  opt.memtable_bytes = 8 << 10;
  opt.block_bytes = 512;
  opt.sstable_target_bytes = 16 << 10;
  opt.level1_bytes = 32 << 10;
  opt.block_cache_blocks = 16;
  opt.durable = true;
  opt.env = env;
  return opt;
}

void WipeDir(const std::string& dir) {
  io::RemoveAllFiles(io::Env::Posix(), dir);
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

// ---------------------------------------------------------------------------
// WAL unit behavior
// ---------------------------------------------------------------------------

TEST(LsmWalTest, ReplayReturnsAppendedRecords) {
  io::Env& env = io::Env::Posix();
  const std::string path = "/tmp/met_wal_test_replay";
  (void)env.Remove(path);
  LsmWal wal(env, path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("a", "1").ok());
  ASSERT_TRUE(wal.Append("b", "2").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Close().ok());

  std::map<std::string, std::string> got;
  uint64_t records = 0;
  bool torn = false;
  ASSERT_TRUE(LsmWal::Replay(
                  env, path,
                  [&](std::string_view k, std::string_view v) {
                    got[std::string(k)] = std::string(v);
                  },
                  &records, &torn)
                  .ok());
  EXPECT_EQ(records, 2u);
  EXPECT_FALSE(torn);
  EXPECT_EQ(got["a"], "1");
  EXPECT_EQ(got["b"], "2");
  (void)env.Remove(path);
}

TEST(LsmWalTest, TornTailIsDroppedNotFatal) {
  io::Env& env = io::Env::Posix();
  const std::string path = "/tmp/met_wal_test_torn";
  (void)env.Remove(path);
  LsmWal wal(env, path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("intact", "value").ok());
  ASSERT_TRUE(wal.Close().ok());
  // Tear the log: append half a record's worth of garbage.
  {
    std::unique_ptr<io::File> f;
    ASSERT_TRUE(env.NewFile(path, io::OpenMode::kAppend, &f).ok());
    ASSERT_TRUE(f->AppendFull("\x07\x00\x00\x00gar").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  uint64_t records = 0;
  bool torn = false;
  ASSERT_TRUE(LsmWal::Replay(
                  env, path, [](std::string_view, std::string_view) {},
                  &records, &torn)
                  .ok());
  EXPECT_EQ(records, 1u);
  EXPECT_TRUE(torn);
  (void)env.Remove(path);
}

TEST(LsmWalTest, MissingLogIsEmpty) {
  uint64_t records = 7;
  bool torn = true;
  ASSERT_TRUE(LsmWal::Replay(
                  io::Env::Posix(), "/tmp/met_wal_test_missing",
                  [](std::string_view, std::string_view) {}, &records, &torn)
                  .ok());
  EXPECT_EQ(records, 0u);
  EXPECT_FALSE(torn);
}

// ---------------------------------------------------------------------------
// Manifest unit behavior
// ---------------------------------------------------------------------------

TEST(LsmManifestTest, WriteLoadRoundTrip) {
  io::Env& env = io::Env::Posix();
  const std::string dir = TestDir("manifest");
  ASSERT_TRUE(env.MkDir(dir).ok());
  WipeDir(dir);
  LsmManifestData data;
  data.wal_gen = 5;
  data.next_table_id = 17;
  data.levels = {{3, 4}, {1, 2, 9}};
  ASSERT_TRUE(LsmManifest::Write(env, dir, 12, data).ok());

  LsmManifestData back;
  uint64_t gen = 0;
  ASSERT_TRUE(LsmManifest::Load(env, dir, &back, &gen).ok());
  EXPECT_EQ(gen, 12u);
  EXPECT_EQ(back.wal_gen, 5u);
  EXPECT_EQ(back.next_table_id, 17u);
  EXPECT_EQ(back.levels, data.levels);
  WipeDir(dir);
}

TEST(LsmManifestTest, MissingIsNotFoundCorruptIsCorruption) {
  io::Env& env = io::Env::Posix();
  const std::string dir = TestDir("manifest_bad");
  ASSERT_TRUE(env.MkDir(dir).ok());
  WipeDir(dir);
  LsmManifestData data;
  uint64_t gen = 0;
  EXPECT_TRUE(LsmManifest::Load(env, dir, &data, &gen).IsNotFound());

  ASSERT_TRUE(LsmManifest::Write(env, dir, 1, data).ok());
  // Flip a byte in the manifest body: load must fail the checksum.
  std::string blob;
  ASSERT_TRUE(env.ReadFileToString(dir + "/MANIFEST-1", &blob).ok());
  blob[blob.size() / 2] ^= 0x40;
  ASSERT_TRUE(env.WriteStringToFile(dir + "/MANIFEST-1", blob, false).ok());
  EXPECT_TRUE(LsmManifest::Load(env, dir, &data, &gen).IsCorruption());
  WipeDir(dir);
}

// ---------------------------------------------------------------------------
// Tree-level crash recovery
// ---------------------------------------------------------------------------

TEST(LsmRecoveryTest, AckedWritesSurviveCrashBeforeFlush) {
  const std::string dir = TestDir("wal_replay");
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  {
    io::Status st;
    auto tree = LsmTree::Open(TinyDurable(dir), &st);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < 50; ++i)
      ASSERT_TRUE(tree->Put(Key(i), "v" + std::to_string(i)).ok());
    ASSERT_TRUE(tree->SyncWal().ok());  // ack everything
    tree->SimulateCrash();
  }
  {
    io::Status st;
    auto tree = LsmTree::Open(TinyDurable(dir), &st);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < 50; ++i) {
      std::string v;
      ASSERT_TRUE(tree->Lookup(Key(i), &v)) << Key(i);
      EXPECT_EQ(v, "v" + std::to_string(i));
    }
  }
  WipeDir(dir);
}

TEST(LsmRecoveryTest, RecoversAcrossFlushesAndCompactions) {
  const std::string dir = TestDir("manifest_recover");
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  std::map<std::string, std::string> oracle;
  {
    io::Status st;
    auto tree = LsmTree::Open(TinyDurable(dir), &st);
    ASSERT_TRUE(st.ok());
    for (int i = 0; i < 3000; ++i) {
      std::string k = Key(i % 1200);  // overwrites exercise shadowing
      std::string v = "val" + std::to_string(i);
      ASSERT_TRUE(tree->Put(k, v).ok());
      oracle[k] = v;
    }
    ASSERT_TRUE(tree->last_io_error().ok()) << tree->last_io_error().ToString();
    EXPECT_GT(tree->NumTables(), 1u);  // flushes + compactions happened
    ASSERT_TRUE(tree->SyncWal().ok());
    tree->SimulateCrash();
  }
  {
    io::Status st;
    auto tree = LsmTree::Open(TinyDurable(dir), &st);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (const auto& [k, v] : oracle) {
      std::string got;
      ASSERT_TRUE(tree->Lookup(k, &got)) << k;
      EXPECT_EQ(got, v) << k;
    }
    EXPECT_FALSE(tree->Lookup("key_not_there"));
  }
  WipeDir(dir);
}

TEST(LsmRecoveryTest, CleanCloseAlsoRecovers) {
  const std::string dir = TestDir("clean_close");
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  {
    auto tree = LsmTree::Open(TinyDurable(dir));
    for (int i = 0; i < 200; ++i) ASSERT_TRUE(tree->Put(Key(i), "x").ok());
    // No SyncWal: the destructor's final sync must ack the tail.
  }
  {
    auto tree = LsmTree::Open(TinyDurable(dir));
    for (int i = 0; i < 200; ++i) EXPECT_TRUE(tree->Lookup(Key(i))) << Key(i);
  }
  WipeDir(dir);
}

TEST(LsmRecoveryTest, KillMidFlushKeepsAllAckedWrites) {
  const std::string dir = TestDir("kill_mid_flush");
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  std::map<std::string, std::string> acked;
  // Try a range of kill points; each kills the env somewhere inside the
  // write path (possibly mid-flush), after which the tree is reopened with
  // a clean env and must serve every write acked before the kill.
  for (uint64_t kill = 2; kill < 40; kill += 3) {
    WipeDir(dir);
    acked.clear();
    io::FaultSpec spec;
    spec.seed = 100 + kill;
    spec.kill_after = kill;
    io::FaultyEnv faulty(io::Env::Posix(), spec);
    {
      io::Status st;
      auto tree = LsmTree::Open(TinyDurable(dir, &faulty), &st);
      if (!st.ok()) continue;  // killed during open: nothing was acked
      std::map<std::string, std::string> pending;
      for (int i = 0; i < 2000 && !faulty.dead(); ++i) {
        std::string k = Key(i), v = "v" + std::to_string(i);
        if (tree->Put(k, v).ok()) pending[k] = v;
        if (i % 64 == 0 && tree->SyncWal().ok()) {
          for (auto& kv : pending) acked[kv.first] = kv.second;
          pending.clear();
        }
      }
      tree->SimulateCrash();
    }
    io::Status st;
    auto tree = LsmTree::Open(TinyDurable(dir), &st);
    ASSERT_TRUE(st.ok()) << "kill=" << kill << ": " << st.ToString();
    for (const auto& [k, v] : acked) {
      std::string got;
      ASSERT_TRUE(tree->Lookup(k, &got)) << "kill=" << kill << " lost " << k;
      EXPECT_EQ(got, v) << "kill=" << kill;
    }
  }
  WipeDir(dir);
}

// Sends the `fail_at`-th table file created after Arm() through `faulty`,
// so only that file's writes see the injected faults; every other call goes
// to the Posix env.
class SstFaultRouter final : public io::Env {
 public:
  explicit SstFaultRouter(io::Env* faulty) : faulty_(faulty) {}

  void Arm(size_t fail_at) {
    fail_at_ = fail_at;
    created_.clear();
  }
  const std::vector<std::string>& created() const { return created_; }

  io::Status NewFile(const std::string& path, io::OpenMode mode,
                     std::unique_ptr<io::File>* out) override {
    if (fail_at_ > 0 && mode == io::OpenMode::kWrite &&
        path.find("/sst_") != std::string::npos) {
      created_.push_back(path);
      if (created_.size() == fail_at_) return faulty_->NewFile(path, mode, out);
    }
    return base_.NewFile(path, mode, out);
  }
  io::Status Rename(const std::string& from, const std::string& to) override {
    return base_.Rename(from, to);
  }
  io::Status Remove(const std::string& path) override {
    return base_.Remove(path);
  }
  io::Status MkDir(const std::string& path) override {
    return base_.MkDir(path);
  }
  io::Status ListDir(const std::string& path,
                     std::vector<std::string>* entries) override {
    return base_.ListDir(path, entries);
  }
  io::Status SyncDir(const std::string& path) override {
    return base_.SyncDir(path);
  }
  io::Status FileSize(const std::string& path, uint64_t* size) override {
    return base_.FileSize(path, size);
  }
  bool FileExists(const std::string& path) override {
    return base_.FileExists(path);
  }

 private:
  io::Env& base_ = io::Env::Posix();
  io::Env* faulty_;
  size_t fail_at_ = 0;
  std::vector<std::string> created_;
};

// A compaction that fails while writing its second output table (ENOSPC on
// every attempt, or a torn write) must remove the outputs it wrote, keep
// serving every acked key from its inputs, and leave a directory that
// reopens to the pre-compaction state.
void CompactionFaultOnSecondOutput(const char* name,
                                   const io::FaultSpec& spec) {
  const std::string dir = TestDir(name);
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  io::FaultyEnv faulty(io::Env::Posix(), spec);
  SstFaultRouter router(&faulty);
  LsmOptions opt = TinyDurable(dir, &router);
  opt.sstable_target_bytes = 4 << 10;  // several outputs per compaction
  opt.level1_bytes = 1 << 20;          // no L1 -> L2 compaction
  std::map<std::string, std::string> acked;
  auto tree = LsmTree::Open(opt);
  ASSERT_TRUE(tree->last_io_error().ok());
  int i = 0;
  for (; tree->stats().flushes < 4; ++i) {  // four L0 tables, no compaction
    const std::string k = Key(i % 500), v = "v" + std::to_string(i);
    ASSERT_TRUE(tree->Put(k, v).ok());
    acked[k] = v;
  }
  for (int j = 0; j < 40; ++j, ++i) {
    const std::string k = Key(i % 500), v = "v" + std::to_string(i);
    ASSERT_TRUE(tree->Put(k, v).ok());
    acked[k] = v;
  }
  ASSERT_TRUE(tree->SyncWal().ok());
  ASSERT_EQ(tree->stats().compactions, 0u);
  ASSERT_EQ(tree->NumTables(), 4u);

  // Table files from here on: #1 is the flush, #2 and #3 the compaction's
  // first and second outputs.
  router.Arm(3);
  EXPECT_FALSE(tree->Finish().ok());
  ASSERT_EQ(router.created().size(), 3u) << "compaction wrote < 2 outputs";
  EXPECT_GT(faulty.counts().Total(), 0u) << "injection never fired";
  EXPECT_EQ(tree->stats().flushes, 5u);
  EXPECT_EQ(tree->stats().compactions, 0u);
  EXPECT_EQ(tree->NumTables(), 5u);
  io::Env& env = io::Env::Posix();
  EXPECT_TRUE(env.FileExists(router.created()[0]));
  EXPECT_FALSE(env.FileExists(router.created()[1])) << "first output left";
  EXPECT_FALSE(env.FileExists(router.created()[2])) << "partial output left";
  std::vector<std::string> entries;
  ASSERT_TRUE(env.ListDir(dir, &entries).ok());
  EXPECT_EQ(std::count_if(entries.begin(), entries.end(),
                          [](const std::string& e) {
                            return e.rfind("sst_", 0) == 0;
                          }),
            5);

  auto expect_acked = [&](LsmTree* t, const char* when) {
    for (const auto& [k, v] : acked) {
      std::string got;
      ASSERT_TRUE(t->Lookup(k, &got)) << when << " lost " << k;
      EXPECT_EQ(got, v) << when << " " << k;
    }
    size_t rows = 0;
    auto it = acked.begin();
    t->Scan("", [&](std::string_view k, std::string_view v) {
      EXPECT_TRUE(it != acked.end() && k == it->first && v == it->second)
          << when << " scan row " << rows;
      ++it;
      ++rows;
      return it != acked.end();
    });
    EXPECT_EQ(rows, acked.size()) << when;
  };
  expect_acked(tree.get(), "after the failed compaction");
  tree.reset();

  io::Status st;
  tree = LsmTree::Open(TinyDurable(dir), &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(tree->NumTables(), 5u);  // the pre-compaction L0
  expect_acked(tree.get(), "after reopen");
  tree.reset();
  WipeDir(dir);
}

TEST(LsmRecoveryTest, CompactionEnospcOnSecondOutputKeepsInputs) {
  io::FaultSpec spec;
  spec.seed = 5;
  spec.enospc = 1.0;  // every write attempt; retries exhaust
  CompactionFaultOnSecondOutput("enospc_second_output", spec);
}

TEST(LsmRecoveryTest, CompactionTornSecondOutputKeepsInputs) {
  io::FaultSpec spec;
  spec.seed = 6;
  spec.kill_after = 2;  // op 1 opens the file, op 2 is its first write
  CompactionFaultOnSecondOutput("torn_second_output", spec);
}

TEST(LsmRecoveryTest, CorruptBlockIsQuarantinedAndOlderLevelServes) {
  const std::string dir = TestDir("quarantine");
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  io::Env& env = io::Env::Posix();
  {
    auto tree = LsmTree::Open(TinyDurable(dir));
    // Two generations of the same keys: after Finish, the newer L0 table
    // shadows the older (compacted) values.
    for (int i = 0; i < 400; ++i) ASSERT_TRUE(tree->Put(Key(i), "old").ok());
    ASSERT_TRUE(tree->Finish().ok());
    for (int i = 0; i < 400; ++i) ASSERT_TRUE(tree->Put(Key(i), "new").ok());
    ASSERT_TRUE(tree->Finish().ok());
    ASSERT_GE(tree->NumTables(), 2u);
  }
  // Corrupt one data byte in the newest table (highest id), then reopen.
  std::vector<std::string> entries;
  ASSERT_TRUE(env.ListDir(dir, &entries).ok());
  std::string newest;
  uint64_t best = 0;
  for (const auto& e : entries) {
    if (e.rfind("sst_", 0) == 0) {
      uint64_t id = std::stoull(e.substr(4));
      if (newest.empty() || id > best) {
        best = id;
        newest = e;
      }
    }
  }
  ASSERT_FALSE(newest.empty());
  std::string blob;
  ASSERT_TRUE(env.ReadFileToString(dir + "/" + newest, &blob).ok());
  blob[64] ^= 0x01;  // inside the first block's payload
  ASSERT_TRUE(env.WriteStringToFile(dir + "/" + newest, blob, false).ok());

  io::Status st;
  auto tree = LsmTree::Open(TinyDurable(dir), &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Reads never abort: keys in the corrupt block fall through to the older
  // table and surface the stale-but-intact value; the rest still read "new".
  size_t old_served = 0, new_served = 0;
  for (int i = 0; i < 400; ++i) {
    std::string v;
    ASSERT_TRUE(tree->Lookup(Key(i), &v)) << Key(i);
    ASSERT_TRUE(v == "old" || v == "new") << v;
    (v == "old" ? old_served : new_served)++;
  }
  EXPECT_GT(old_served, 0u) << "no fall-through happened";
  EXPECT_GT(new_served, 0u);
  EXPECT_GT(tree->stats().block_corruptions, 0u);
  WipeDir(dir);
}

// Newest table file (highest id) in `dir`.
std::string NewestTable(const std::string& dir) {
  std::vector<std::string> entries;
  EXPECT_TRUE(io::Env::Posix().ListDir(dir, &entries).ok());
  std::string newest;
  uint64_t best = 0;
  for (const auto& e : entries) {
    if (e.rfind("sst_", 0) != 0) continue;
    const uint64_t id = std::stoull(e.substr(4));
    if (newest.empty() || id > best) {
      best = id;
      newest = e;
    }
  }
  return dir + "/" + newest;
}

// Rewrites the first entry's klen in block 0 of a table so that the entry
// overruns the block, then recomputes the block's CRC32C: only the
// structural check made when the block is read can catch the fault.
void BreakFirstBlockStructure(const std::string& path) {
  io::Env& env = io::Env::Posix();
  std::string blob;
  ASSERT_TRUE(env.ReadFileToString(path, &blob).ok());
  ASSERT_GE(blob.size(), 16u);
  // Trailer: u64 footer offset, u32 footer crc, u32 magic. Footer: u32
  // block count, then per block u32 key length, first key, u64 offset and
  // u32 payload length. Block 0's payload starts at offset 0.
  uint64_t footer = 0;
  std::memcpy(&footer, blob.data() + blob.size() - 16, sizeof(footer));
  ASSERT_LT(footer + 8, blob.size());
  uint32_t first_key_len = 0, len = 0;
  std::memcpy(&first_key_len, blob.data() + footer + 4, sizeof(uint32_t));
  std::memcpy(&len, blob.data() + footer + 8 + first_key_len + 8,
              sizeof(uint32_t));
  ASSERT_LE(len + 4u, footer);
  std::memcpy(blob.data(), &len, sizeof(len));  // key runs past the payload
  const uint32_t crc = io::Crc32c(blob.data(), size_t{len});
  std::memcpy(blob.data() + len, &crc, sizeof(crc));
  ASSERT_TRUE(env.WriteStringToFile(path, blob, false).ok());
}

TEST(LsmRecoveryTest, BrokenBlockWithValidCrcIsQuarantined) {
  const std::string dir = TestDir("broken_structure");
  (void)io::Env::Posix().MkDir(dir);  // may exist; WipeDir empties it
  WipeDir(dir);
  LsmOptions opt = TinyDurable(dir);
  opt.memtable_bytes = 1 << 20;  // one L0 table per Finish
  constexpr int kKeys = 400;
  {
    auto tree = LsmTree::Open(opt);
    for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(tree->Put(Key(i), "old").ok());
    ASSERT_TRUE(tree->Finish().ok());
    for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(tree->Put(Key(i), "new").ok());
    ASSERT_TRUE(tree->Finish().ok());
    ASSERT_EQ(tree->NumTables(), 2u);
  }
  BreakFirstBlockStructure(NewestTable(dir));

  // The keys of the broken block (a prefix of the key space) fall through
  // to the older table; every other key still reads "new".
  auto old_prefix = [&](const std::vector<std::string>& got) {
    size_t n = 0;
    while (n < got.size() && got[n] == "old") ++n;
    for (size_t i = n; i < got.size(); ++i) EXPECT_EQ(got[i], "new") << i;
    return n;
  };
  auto lookup_all = [&](LsmTree* tree) {
    std::vector<std::string> got(kKeys);
    for (int i = 0; i < kKeys; ++i)
      EXPECT_TRUE(tree->Lookup(Key(i), &got[i])) << Key(i);
    return got;
  };

  size_t broken = 0;
  {  // cached path: Scan
    auto tree = LsmTree::Open(opt);
    std::vector<std::string> got;
    tree->Scan("", [&](std::string_view k, std::string_view v) {
      EXPECT_EQ(k, Key(static_cast<int>(got.size())));
      got.emplace_back(v);
      return true;
    });
    ASSERT_EQ(got.size(), size_t{kKeys});
    broken = old_prefix(got);
    EXPECT_GT(broken, 0u);
    EXPECT_LT(broken, size_t{kKeys});
    EXPECT_EQ(tree->stats().block_corruptions, 1u);
  }
  {  // cached path: Lookup
    auto tree = LsmTree::Open(opt);
    EXPECT_EQ(old_prefix(lookup_all(tree.get())), broken);
    EXPECT_EQ(tree->stats().block_corruptions, 1u);
  }
  {  // direct path: a compaction salvages the rest of the table
    auto tree = LsmTree::Open(opt);
    for (int g = 0; g < 3; ++g) {  // the third flush compacts five L0 tables
      ASSERT_TRUE(tree->Put("zz" + std::to_string(g), "x").ok());
      ASSERT_TRUE(tree->Finish().ok());
    }
    ASSERT_EQ(tree->stats().compactions, 1u);
    EXPECT_TRUE(tree->last_io_error().ok())
        << tree->last_io_error().ToString();
    EXPECT_EQ(tree->stats().block_corruptions, 1u);
    EXPECT_EQ(old_prefix(lookup_all(tree.get())), broken);
  }
  {  // the broken table is gone; the merged tables read clean
    auto tree = LsmTree::Open(opt);
    EXPECT_EQ(old_prefix(lookup_all(tree.get())), broken);
    EXPECT_EQ(tree->stats().block_corruptions, 0u);
  }
  WipeDir(dir);
}

TEST(LsmRecoveryTest, CorruptManifestOpensDegradedWithoutGc) {
  const std::string dir = TestDir("bad_manifest");
  io::Env& env = io::Env::Posix();
  (void)env.MkDir(dir);
  WipeDir(dir);
  {
    auto tree = LsmTree::Open(TinyDurable(dir));
    for (int i = 0; i < 300; ++i) ASSERT_TRUE(tree->Put(Key(i), "x").ok());
    ASSERT_TRUE(tree->Finish().ok());
  }
  std::vector<std::string> before;
  ASSERT_TRUE(env.ListDir(dir, &before).ok());
  ASSERT_TRUE(env.WriteStringToFile(dir + "/CURRENT", "garbage\n", true).ok());

  io::Status st;
  auto tree = LsmTree::Open(TinyDurable(dir), &st);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_FALSE(tree->last_io_error().ok());
  // Degraded: writes are refused, and no table file was garbage-collected.
  EXPECT_FALSE(tree->Put("k", "v").ok());
  std::vector<std::string> after;
  ASSERT_TRUE(env.ListDir(dir, &after).ok());
  for (const auto& e : before) {
    if (e.rfind("sst_", 0) == 0) {
      EXPECT_TRUE(std::find(after.begin(), after.end(), e) != after.end())
          << "recovery GC'd live table " << e;
    }
  }
  WipeDir(dir);
}

TEST(LsmRecoveryTest, OrphanFilesAreSweptOnOpen) {
  const std::string dir = TestDir("orphans");
  io::Env& env = io::Env::Posix();
  (void)env.MkDir(dir);
  WipeDir(dir);
  {
    auto tree = LsmTree::Open(TinyDurable(dir));
    for (int i = 0; i < 100; ++i) ASSERT_TRUE(tree->Put(Key(i), "x").ok());
    ASSERT_TRUE(tree->Finish().ok());
  }
  // Plant orphans: an uncommitted table, a stale WAL, and a temp file.
  ASSERT_TRUE(env.WriteStringToFile(dir + "/sst_9999", "junk", false).ok());
  ASSERT_TRUE(env.WriteStringToFile(dir + "/wal_9999", "junk", false).ok());
  ASSERT_TRUE(env.WriteStringToFile(dir + "/CURRENT.tmp", "junk", false).ok());
  {
    io::Status st;
    auto tree = LsmTree::Open(TinyDurable(dir), &st);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(tree->Lookup(Key(i)));
  }
  EXPECT_FALSE(env.FileExists(dir + "/sst_9999"));
  EXPECT_FALSE(env.FileExists(dir + "/wal_9999"));
  EXPECT_FALSE(env.FileExists(dir + "/CURRENT.tmp"));
  WipeDir(dir);
}

TEST(LsmRecoveryTest, EphemeralModeStillCleansUp) {
  const std::string dir = TestDir("ephemeral");
  io::Env& env = io::Env::Posix();
  {
    LsmOptions opt = TinyDurable(dir);
    opt.durable = false;
    LsmTree tree(opt);
    for (int i = 0; i < 2000; ++i) ASSERT_TRUE(tree.Put(Key(i), "x").ok());
    ASSERT_TRUE(tree.Finish().ok());
    EXPECT_GT(tree.NumTables(), 0u);
  }
  std::vector<std::string> entries;
  if (env.ListDir(dir, &entries).ok()) {
    EXPECT_TRUE(entries.empty()) << entries.front();
  }
}

// ---------------------------------------------------------------------------
// Short-write regression pins (lsm + minidb anti-cache)
// ---------------------------------------------------------------------------

TEST(ShortWriteRegressionTest, LsmFlushSurvivesShortWrites) {
  // Regression: table files were once written with a single ::write call and
  // asserted on completeness; a short write tore the file. Under short=1.0
  // every write lands at most half its payload per attempt.
  const std::string dir = TestDir("short_lsm");
  (void)io::Env::Posix().MkDir(dir);
  WipeDir(dir);
  io::FaultSpec spec;
  spec.seed = 77;
  spec.short_rw = 1.0;
  io::FaultyEnv faulty(io::Env::Posix(), spec);
  io::Status st;
  auto tree = LsmTree::Open(TinyDurable(dir, &faulty), &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 1500; ++i)
    ASSERT_TRUE(tree->Put(Key(i), "value" + std::to_string(i)).ok());
  ASSERT_TRUE(tree->Finish().ok()) << tree->last_io_error().ToString();
  ASSERT_TRUE(tree->last_io_error().ok()) << tree->last_io_error().ToString();
  EXPECT_GT(faulty.counts().short_rw, 0u) << "injection never fired";
  for (int i = 0; i < 1500; ++i) {
    std::string v;
    ASSERT_TRUE(tree->Lookup(Key(i), &v)) << Key(i);
    EXPECT_EQ(v, "value" + std::to_string(i));
  }
  tree.reset();
  WipeDir(dir);
}

TEST(ShortWriteRegressionTest, AntiCacheSurvivesShortAndEintrIo) {
  // Regression: the anti-cache used single ::pwrite / ::pread calls with
  // asserts; short transfers or EINTR killed the process. The met::io layer
  // must absorb both on the evict and un-evict paths.
  io::FaultSpec spec;
  spec.seed = 13;
  spec.short_rw = 0.5;
  spec.eintr = 0.2;
  io::FaultyEnv faulty(io::Env::Posix(), spec);
  MiniDb db(IndexKind::kBTree, "/tmp/met_minidb_short_test", &faulty);
  MiniTable* t = db.CreateTable("t");
  std::string payload(600, 'p');
  for (uint64_t pk = 0; pk < 400; ++pk) {
    ASSERT_NE(t->Insert(pk, payload + std::to_string(pk)), ~0ull);
  }
  db.EnableAntiCaching(1);  // evict everything it can
  db.MaybeEvict();
  EXPECT_GT(db.stats().evictions, 0u);
  EXPECT_GT(faulty.counts().Total(), 0u) << "injection never fired";
  // Fault every evicted tuple back in; retried I/O must reassemble payloads.
  for (uint64_t pk = 0; pk < 400; ++pk) {
    std::string v;
    ASSERT_TRUE(t->Get(pk, &v)) << pk;
    EXPECT_EQ(v, payload + std::to_string(pk)) << pk;
  }
  EXPECT_GT(db.stats().anticache_fetches, 0u);
}

TEST(ShortWriteRegressionTest, AntiCacheEvictionFailureKeepsTuplesResident) {
  // Every append attempt fails (EINTR until the retry budget is exhausted):
  // the eviction pass must abandon itself — no assert, no abort — leaving
  // every tuple resident and readable, with the error counter moving.
  io::FaultSpec spec;
  spec.seed = 21;
  spec.eintr = 1.0;
  io::FaultyEnv faulty(io::Env::Posix(), spec);
  MiniDb db(IndexKind::kBTree, "/tmp/met_minidb_evictfail_test", &faulty);
  MiniTable* t = db.CreateTable("t");
  std::string payload(512, 'q');
  for (uint64_t pk = 0; pk < 64; ++pk) ASSERT_NE(t->Insert(pk, payload), ~0ull);
  db.EnableAntiCaching(1);
  db.MaybeEvict();
  EXPECT_EQ(db.stats().evictions, 0u);
  EXPECT_GT(db.stats().anticache_errors, 0u);
  for (uint64_t pk = 0; pk < 64; ++pk) {
    std::string v;
    ASSERT_TRUE(t->Get(pk, &v)) << pk;
    EXPECT_EQ(v, payload);
  }
}

TEST(ShortWriteRegressionTest, AntiCacheFetchFailureDoesNotAbort) {
  // Un-eviction hitting a persistent read failure: Get returns false, the
  // tuple stays evicted (its payload is still addressed on disk), and the
  // error counter moves — instead of the old MET_ASSERT abort.
  const std::string path = "/tmp/met_minidb_fetchfail_test";
  MiniDb db(IndexKind::kBTree, path);
  MiniTable* t = db.CreateTable("t");
  std::string payload(512, 'r');
  for (uint64_t pk = 0; pk < 64; ++pk) ASSERT_NE(t->Insert(pk, payload), ~0ull);
  db.EnableAntiCaching(1);
  db.MaybeEvict();
  ASSERT_GT(db.stats().evictions, 0u);
  // Truncate the anti-cache file out from under the evicted tuples: every
  // fetch now comes up short.
  {
    std::unique_ptr<io::File> f;
    ASSERT_TRUE(
        io::Env::Posix().NewFile(path, io::OpenMode::kWrite, &f).ok());
    ASSERT_TRUE(f->Close().ok());  // kWrite truncates
  }
  size_t failed = 0;
  for (uint64_t pk = 0; pk < 64; ++pk) {
    std::string v;
    if (!t->Get(pk, &v)) ++failed;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(db.stats().anticache_errors, 0u);
}

}  // namespace
}  // namespace met
