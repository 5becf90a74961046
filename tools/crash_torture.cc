// Crash-torture harness for the durable LSM tree (nightly CI + local runs).
//
// Each cycle opens the tree through an io::FaultyEnv seeded from
// (base seed + cycle), runs a slice of a seeded workload while faults fire
// (EINTR, short transfers, ENOSPC, fsync failures, bit flips, torn writes),
// then simulates `kill -9` — either at the env's injected kill point or at
// the end of the slice — and reopens the directory with a *clean* env, the
// way a restarted process would read the real bytes a crash left behind.
//
// Oracle: a shadow std::map tracks two tiers per cycle —
//   acked    writes covered by a successful SyncWal (or earlier manifest
//            commit); these MUST survive, with exactly their latest value;
//   pending  the ordered log of Put-OK writes since the last successful
//            sync; the WAL may have lost an un-synced *suffix* of them, so
//            the recovered state must equal acked plus some prefix of the
//            pending log (torn tails truncate, they never reorder).
// After every reopen the tree is enumerated in full through Scan, compared
// against each candidate prefix state, and structurally Validate()d
// (MET_CHECK=1 in tools/CMakeLists.txt). Any divergence prints a repro line
// and counts toward the exit code (capped at 125).
//
//   crash_torture --cycles=1000 --ops=50000 --seed=1
//                 [--fault=SPEC] [--dir=PATH] [--out=PATH]
//
// --fault (or $MET_FAULT) uses the FaultSpec grammar; when the spec pins no
// kill_after, each cycle draws one at random so kills land in every phase:
// mid-WAL-append, mid-flush, mid-manifest-rename, mid-compaction.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "io/fault_env.h"
#include "io/io.h"
#include "io/status.h"
#include "lsm/lsm.h"

namespace met {
namespace {

struct Options {
  size_t cycles = 1000;
  size_t ops = 50000;  // total across all cycles
  uint64_t seed = 1;
  std::string fault_spec;  // empty = $MET_FAULT = default mix
  std::string dir = "/tmp/met_crash_torture";
  std::string out_path;
};

LsmOptions TortureLsmOptions(const Options& opt, io::Env* env) {
  LsmOptions o;
  o.dir = opt.dir;
  o.memtable_bytes = 8 << 10;  // tiny thresholds: constant flush/compaction
  o.block_bytes = 512;
  o.sstable_target_bytes = 16 << 10;
  o.level1_bytes = 64 << 10;
  o.wal_group_sync_bytes = 2 << 10;
  o.env = env;
  o.durable = true;
  return o;
}

std::string KeyFor(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "key%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

/// Enumerates every (key, value) in the tree with one Scan.
std::map<std::string, std::string> DumpTree(LsmTree& tree) {
  std::map<std::string, std::string> out;
  tree.Scan("", [&](std::string_view k, std::string_view v) {
    out.emplace(k, v);
    return true;
  });
  return out;
}

/// One write acknowledged only at WAL-sync granularity.
struct PendingPut {
  std::string key;
  std::string value;
};

int Run(const Options& opt) {
  io::Env& posix = io::Env::Posix();
  (void)posix.MkDir(opt.dir);  // EEXIST on reruns is fine
  io::RemoveAllFiles(posix, opt.dir);

  io::FaultSpec base_spec;
  if (!opt.fault_spec.empty()) {
    io::Status st = io::FaultSpec::Parse(opt.fault_spec, &base_spec);
    if (!st.ok()) {
      std::cerr << "bad --fault spec: " << st.ToString() << "\n";
      return 2;
    }
  } else {
    base_spec = io::FaultSpec::FromEnv();
    const bool fault_free = base_spec.eintr == 0 && base_spec.short_rw == 0 &&
                            base_spec.enospc == 0 &&
                            base_spec.fsync_fail == 0 && base_spec.torn == 0 &&
                            base_spec.bitflip == 0 &&
                            base_spec.kill_after == 0;
    if (fault_free) {
      // Default mix: a little of everything, kill point drawn per cycle.
      // Literal spec: parse cannot fail.
      (void)io::FaultSpec::Parse(
          "eintr=0.02,short=0.05,enospc=0.002,fsync=0.002", &base_spec);
    }
  }

  std::ofstream out;
  if (!opt.out_path.empty()) out.open(opt.out_path, std::ios::app);
  int divergences = 0;
  auto report = [&](const std::string& msg) {
    ++divergences;
    std::cerr << msg;
    if (out.is_open()) out << msg << std::flush;
  };

  // Survivor state carried across cycles. `acked` must be present after
  // every recovery; `pending_log` is the post-sync Put sequence of the
  // current cycle, of which recovery may keep any prefix.
  std::map<std::string, std::string> acked;
  Random rng(opt.seed ^ 0x7047);
  const size_t ops_per_cycle =
      opt.ops / opt.cycles > 0 ? opt.ops / opt.cycles : 1;
  uint64_t op_serial = 0;
  size_t kills_injected = 0;

  for (size_t cycle = 0; cycle < opt.cycles; ++cycle) {
    io::FaultSpec spec = base_spec;
    spec.seed = opt.seed + cycle;
    if (spec.kill_after == 0 && spec.torn == 0.0) {
      // Aim the kill inside this cycle's write-op budget; occasionally far
      // past it, so some cycles crash only at the explicit SimulateCrash.
      spec.kill_after = 1 + rng.Uniform(ops_per_cycle * 4 + 16);
    }
    io::FaultyEnv fenv(posix, spec);

    io::Status open_st;
    std::unique_ptr<LsmTree> tree =
        LsmTree::Open(TortureLsmOptions(opt, &fenv), &open_st);
    if (!open_st.ok()) {
      // A faulty open may legitimately degrade (e.g. the WAL create hits
      // the kill point); retry once on clean I/O — that must succeed.
      tree = LsmTree::Open(TortureLsmOptions(opt, nullptr), &open_st);
      if (!open_st.ok()) {
        std::ostringstream msg;
        msg << "[torture] FAIL seed=" << opt.seed << " cycle=" << cycle
            << ": clean reopen failed: " << open_st.ToString() << "\n";
        report(msg.str());
        break;
      }
    }

    std::vector<PendingPut> pending_log;
    const bool lenient_reads = spec.HasReadFaults();
    for (size_t i = 0; i < ops_per_cycle && !fenv.dead(); ++i) {
      uint64_t serial = op_serial++;
      if (rng.Uniform(4) != 0) {  // 75% writes
        std::string k = KeyFor(rng.Uniform(2000));
        std::string v = "v" + std::to_string(serial);
        if (tree->Put(k, v).ok()) {
          pending_log.push_back({k, v});
        } else if (fenv.dead()) {
          // The env died during this Put. Like a real kill -9 mid-write,
          // the record may still have landed in full — the caller just
          // never got the ack — so recovery may legitimately surface it.
          // It is the last record before death, so the prefix check covers
          // both outcomes.
          pending_log.push_back({k, v});
        }
      } else if (rng.Uniform(4) == 0) {
        // Explicit group ack: everything applied so far becomes mandatory.
        if (tree->SyncWal().ok()) {
          for (PendingPut& p : pending_log)
            acked[p.key] = std::move(p.value);
          pending_log.clear();
        }
      } else {
        // Probe reads while faults fire; under read faults a flipped bit
        // may quarantine the only block holding a key, so only fault-free
        // specs assert on the answer here (recovery re-checks everything).
        std::string k = KeyFor(rng.Uniform(2000));
        std::string v;
        bool found = tree->Lookup(k, &v);
        if (!lenient_reads) {
          auto it = acked.find(k);
          std::string want;
          bool want_found = it != acked.end();
          if (want_found) want = it->second;
          for (const PendingPut& p : pending_log) {
            if (p.key == k) {
              want_found = true;
              want = p.value;
            }
          }
          if (found != want_found || (found && v != want)) {
            std::ostringstream msg;
            msg << "[torture] FAIL seed=" << opt.seed << " cycle=" << cycle
                << " op=" << serial << ": live Lookup(" << k
                << ") diverges (found=" << found << ")\n";
            report(msg.str());
          }
        }
      }
    }
    if (fenv.dead()) ++kills_injected;

    tree->SimulateCrash();
    tree.reset();

    // Recovery always runs on a clean env: the bytes on disk are what the
    // crash left; injected read faults would corrupt the replay itself.
    tree = LsmTree::Open(TortureLsmOptions(opt, nullptr), &open_st);
    if (!open_st.ok()) {
      std::ostringstream msg;
      msg << "[torture] FAIL seed=" << opt.seed << " cycle=" << cycle
          << ": recovery failed: " << open_st.ToString() << "\n";
      report(msg.str());
      break;
    }

    std::map<std::string, std::string> got = DumpTree(*tree);

    // The recovered state must equal acked + some prefix of pending_log.
    std::map<std::string, std::string> want = acked;
    size_t matched_prefix = pending_log.size() + 1;  // sentinel: no match
    for (size_t j = 0; j <= pending_log.size(); ++j) {
      if (j > 0) want[pending_log[j - 1].key] = pending_log[j - 1].value;
      if (got == want) matched_prefix = j;  // prefer the longest match
    }
    if (matched_prefix > pending_log.size()) {
      std::ostringstream msg;
      msg << "[torture] FAIL seed=" << opt.seed << " cycle=" << cycle
          << ": recovered state matches no acked+prefix candidate ("
          << got.size() << " keys recovered, " << acked.size()
          << " acked, " << pending_log.size() << " pending)\n"
          << "repro: crash_torture --seed=" << opt.seed
          << " --cycles=" << opt.cycles << " --ops=" << opt.ops
          << " --fault=" << base_spec.ToString() << "\n";
      report(msg.str());
      // Resync the oracle so later cycles still test something.
      acked = std::move(got);
    } else {
      // Replaying the matched prefix makes it the new acked floor: those
      // records are in the recovered (flushed or re-logged) state now.
      for (size_t j = 0; j < matched_prefix; ++j)
        acked[pending_log[j].key] = pending_log[j].value;
    }

    std::ostringstream err;
    if (!tree->Validate(err)) {
      std::ostringstream msg;
      msg << "[torture] FAIL seed=" << opt.seed << " cycle=" << cycle
          << ": Validate() after recovery:\n"
          << err.str() << "\n";
      report(msg.str());
    }
    tree->SimulateCrash();  // leave the dir for the next cycle's open
    tree.reset();

    if ((cycle + 1) % 100 == 0) {
      std::cout << "[torture] cycle " << (cycle + 1) << "/" << opt.cycles
                << ": " << acked.size() << " acked keys, " << kills_injected
                << " kills, " << divergences << " divergence(s)\n";
    }
    if (divergences >= 125) break;
  }

  io::RemoveAllFiles(posix, opt.dir);
  std::cout << "[torture] done: " << opt.cycles << " cycles, "
            << kills_injected << " injected kills, " << divergences
            << " divergence(s)\n";
  return divergences > 125 ? 125 : divergences;
}

}  // namespace
}  // namespace met

int main(int argc, char** argv) {
  met::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--cycles=")) {
      opt.cycles = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--ops=")) {
      opt.ops = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 0);
    } else if (const char* v = value("--fault=")) {
      opt.fault_spec = v;
    } else if (const char* v = value("--dir=")) {
      opt.dir = v;
    } else if (const char* v = value("--out=")) {
      opt.out_path = v;
    } else {
      std::cerr << "unknown argument: " << arg << "\n"
                << "usage: crash_torture [--cycles=N] [--ops=N] [--seed=N]\n"
                << "                     [--fault=SPEC] [--dir=PATH] "
                   "[--out=PATH]\n";
      return 2;
    }
  }
  if (opt.cycles == 0) opt.cycles = 1;
  return met::Run(opt);
}
