// Durability-cost benchmark for the LSM tree (robustness PR follow-up to
// the Chapter 4 write-path numbers): what the WAL + MANIFEST machinery
// charges per Put, and what recovery buys back after a crash.
//
// Four write modes over the same seeded upsert stream:
//   ephemeral   — historical in-process tree (no WAL, no MANIFEST); the
//                 pre-durability baseline.
//   group-64k   — durable, WAL fsync every 64 KiB of appends (default).
//   group-4k    — durable, aggressive 4 KiB group sync.
//   sync-each   — durable, SyncWal() after every Put (ack-per-write floor).
//
// After each durable load the tree is crashed with SimulateCrash() and
// reopened; the row reports recovery wall time and the recovered key count,
// so the table shows both sides of the trade: per-Put overhead vs. what a
// restart recovers. `--json <path>` or MET_BENCH_JSON emit met.bench.v1.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "io/io.h"
#include "lsm/lsm.h"

namespace met {
namespace {

struct ModeResult {
  double put_mops = 0;
  double sync_per_put = 0;
  double recover_seconds = 0;
  uint64_t recovered_keys = 0;
};

LsmOptions BenchOptions(const std::string& dir, bool durable,
                        size_t group_sync_bytes) {
  LsmOptions opt;
  opt.dir = dir;
  opt.memtable_bytes = 256 << 10;
  opt.block_bytes = 4096;
  opt.filter = LsmFilterType::kBloom;
  opt.durable = durable;
  opt.wal_group_sync_bytes = group_sync_bytes;
  return opt;
}

ModeResult RunMode(const std::string& name, size_t n_ops, bool durable,
                   size_t group_sync_bytes, bool sync_each) {
  const std::string dir = "/tmp/met_bench_durability_" + name;
  io::Env& posix = io::Env::Posix();
  (void)posix.MkDir(dir);  // EEXIST on reruns is fine
  io::RemoveAllFiles(posix, dir);

  ModeResult res;
  Random rng(42);
  {
    LsmOptions opt = BenchOptions(dir, durable, group_sync_bytes);
    std::unique_ptr<LsmTree> tree;
    if (durable) {
      tree = LsmTree::Open(opt);
    } else {
      tree = std::make_unique<LsmTree>(opt);
    }
    uint64_t syncs_before = tree->stats().wal_syncs;
    Timer t;
    char key[24];
    for (size_t i = 0; i < n_ops; ++i) {
      std::snprintf(key, sizeof(key), "key%010llu",
                    static_cast<unsigned long long>(rng.Uniform(n_ops)));
      std::string value = "value" + std::to_string(i);
      (void)tree->Put(key, value);
      if (sync_each) (void)tree->SyncWal();
    }
    if (durable) (void)tree->SyncWal();
    res.put_mops = static_cast<double>(n_ops) / t.ElapsedSeconds() / 1e6;
    res.sync_per_put =
        static_cast<double>(tree->stats().wal_syncs - syncs_before) /
        static_cast<double>(n_ops);
    if (durable) {
      tree->SimulateCrash();  // leave the dir for recovery below
    }
  }

  if (durable) {
    Timer t;
    std::unique_ptr<LsmTree> tree =
        LsmTree::Open(BenchOptions(dir, true, group_sync_bytes));
    res.recover_seconds = t.ElapsedSeconds();
    tree->Scan("", [&](std::string_view, std::string_view) {
      ++res.recovered_keys;
      return true;
    });
    bench::Consume(res.recovered_keys);
    tree->SimulateCrash();
  }
  io::RemoveAllFiles(posix, dir);
  return res;
}

void Run() {
  const size_t n_ops = 100000 * bench::Scale();
  // fsync-per-Put is orders of magnitude slower; trim so the row finishes.
  const size_t n_sync_each = n_ops / 20 > 0 ? n_ops / 20 : 1;

  bench::Reporter& rep = bench::Reporter::Get();
  rep.Section("LSM durability cost (upserts, uniform keys)");
  std::printf("%-12s %10s %12s %12s %12s %14s\n", "mode", "ops", "put Mops/s",
              "syncs/put", "recover s", "recovered keys");

  struct Mode {
    const char* name;
    bool durable;
    size_t group_sync;
    bool sync_each;
    size_t ops;
  } modes[] = {
      {"ephemeral", false, 64 << 10, false, n_ops},
      {"group-64k", true, 64 << 10, false, n_ops},
      {"group-4k", true, 4 << 10, false, n_ops},
      {"sync-each", true, 64 << 10, true, n_sync_each},
  };

  for (const Mode& m : modes) {
    ModeResult r = RunMode(m.name, m.ops, m.durable, m.group_sync,
                           m.sync_each);
    std::printf("%-12s %10zu %12.3f %12.4f %12.4f %14llu\n", m.name, m.ops,
                r.put_mops, r.sync_per_put, r.recover_seconds,
                static_cast<unsigned long long>(r.recovered_keys));
    rep.Row({{"mode", m.name},
             {"ops", m.ops},
             {"put_mops", r.put_mops},
             {"syncs_per_put", r.sync_per_put},
             {"recover_seconds", r.recover_seconds},
             {"recovered_keys", static_cast<size_t>(r.recovered_keys)}});
  }
}

}  // namespace
}  // namespace met

int main(int argc, char** argv) {
  met::bench::Reporter::Get().ParseArgs(&argc, argv);
  met::Run();
  met::bench::Reporter::Get().WriteIfEnabled();
  return 0;
}
