// `metperf replay`: drives one ShardEngine in process, with the served
// workload's mix and seed, timing every call (one span per call). This is
// the engine share of a served request with the network, admission queue
// and coalescing taken away: the hybrid index for the memory engine, the
// LSM (WAL group commit, inline flush and compaction, Seek+Lookup scans)
// for the durable one. One engine holds keys/2 keys, as one of the two
// served shards does.
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "io/io.h"
#include "obs/obs.h"
#include "serve/server.h"

namespace perfbench {
namespace {

std::string RegistryJson() {
  std::string s;
  met::obs::MetricsRegistry::Global().DumpJson(&s);
  return s;
}

struct Spans {
  std::vector<double> us;
  double total_us = 0;
  void Add(uint64_t ns) {
    us.push_back(ns / 1e3);
    total_us += ns / 1e3;
  }
};

}  // namespace

int ReplayMain(int argc, char** argv) {
  const uint64_t seed = FlagU64(argc, argv, "--seed", 1);
  const uint32_t keys = static_cast<uint32_t>(FlagU64(argc, argv, "--keys", 100000));
  const uint64_t ops = FlagU64(argc, argv, "--ops", 100000);
  const std::string engine_name = Flag(argc, argv, "--engine", "mem");
  const std::string dir = Flag(argc, argv, "--dir", "");
  const bool durable = engine_name == "durable";
  if (durable && dir.empty()) {
    std::fprintf(stderr, "replay: --engine durable needs --dir\n");
    return 2;
  }
  // Same mixes as serve-load (get, put, delete, scan) and scan length.
  const double w_mem[4] = {0.80, 0.20, 0, 0};
  const double w_dur[4] = {0.40, 0.50, 0.05, 0.05};
  const double* w = durable ? w_dur : w_mem;
  const size_t scan_len = 50;
  const size_t chunk = 16;  // ops per group commit, as one drained chunk

  double rss0 = ProcField(getpid(), "status", "VmRSS");
  std::unique_ptr<met::serve::ShardEngine> engine;
  if (durable) {
    met::io::Status st;
    engine = met::serve::NewDurableEngine(dir, &met::io::Env::Posix(), &st);
    if (!engine) {
      std::fprintf(stderr, "replay: open failed: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    engine = met::serve::NewMemoryEngine();
  }

  std::vector<uint32_t> ver(keys, 1);
  uint64_t check_failures = 0, failed = 0;
  uint64_t t0 = NowNs();
  for (uint32_t i = 0; i < keys; ++i) {
    if (!engine->Put(KeyOf(seed, i), ValueOf(i, 1))) ++failed;
    if (durable && i % chunk == chunk - 1 && !engine->SyncWrites()) ++failed;
  }
  if (!engine->SyncWrites()) ++failed;
  double preload_s = (NowNs() - t0) / 1e9;
  std::string obs_preload = RegistryJson();

  Spans get, put, del, scan, sync;
  uint64_t scan_rows = 0, writes = 0;
  Rng rng(StreamSeed(seed, 64));
  std::vector<uint64_t> out;
  bool dirty = false;
  uint64_t r0 = NowNs();
  for (uint64_t k = 0; k < ops; ++k) {
    double u = rng.Unit();
    int op = 0;
    for (double acc = 0; op < 4; ++op) {
      acc += w[op];
      if (u < acc) break;
    }
    if (op >= 4) op = 0;
    uint32_t i = static_cast<uint32_t>(rng.Below(keys));
    uint64_t key = KeyOf(seed, i);
    uint64_t start = op == 3 ? rng.Next() : 0;
    uint64_t a = NowNs();
    switch (op) {
      case 0: {
        uint64_t v = 0;
        bool found = engine->Get(key, &v);
        get.Add(NowNs() - a);
        if (found != (ver[i] != 0) || (found && v != ValueOf(i, ver[i])))
          ++check_failures;
        break;
      }
      case 1: {
        bool ok = engine->Put(key, ValueOf(i, ver[i] + 1));
        put.Add(NowNs() - a);
        if (ok) ++ver[i];
        else ++failed;
        dirty = true;
        ++writes;
        break;
      }
      case 2: {
        bool ok = engine->Delete(key);
        del.Add(NowNs() - a);
        if (ok != (ver[i] != 0)) ++check_failures;
        ver[i] = 0;
        dirty = true;
        ++writes;
        break;
      }
      default: {
        size_t n = engine->Scan(start, scan_len, &out);
        scan.Add(NowNs() - a);
        scan_rows += n;
        uint64_t prev = start;
        for (uint64_t v : out) {
          uint64_t sk = KeyOf(seed, IndexOfValue(v));
          if (IndexOfValue(v) >= keys || sk < prev) ++check_failures;
          prev = sk + 1;
        }
      }
    }
    if (durable && dirty && k % chunk == chunk - 1) {
      uint64_t s = NowNs();
      if (!engine->SyncWrites()) ++failed;
      sync.Add(NowNs() - s);
      dirty = false;
    }
  }
  if (!engine->SyncWrites()) ++failed;
  double replay_s = (NowNs() - r0) / 1e9;

  // Batched reads at the server's coalescing width.
  Spans batch;
  {
    std::vector<uint64_t> bk(chunk);
    std::vector<met::LookupResult> res(chunk);
    std::vector<uint32_t> bi(chunk);
    uint64_t batches = std::max<uint64_t>(ops / chunk / 2, 1);
    for (uint64_t b = 0; b < batches; ++b) {
      for (size_t j = 0; j < chunk; ++j) {
        bi[j] = static_cast<uint32_t>(rng.Below(keys));
        bk[j] = KeyOf(seed, bi[j]);
      }
      uint64_t a = NowNs();
      engine->GetBatch(bk.data(), chunk, res.data());
      batch.Add(NowNs() - a);
      for (size_t j = 0; j < chunk; ++j)
        if (res[j].found != (ver[bi[j]] != 0) ||
            (res[j].found && res[j].value != ValueOf(bi[j], ver[bi[j]])))
          ++check_failures;
    }
  }
  double rss1 = ProcField(getpid(), "status", "VmRSS");

  JsonOut j;
  j.Num("preload_s", preload_s)
      .Num("replay_s", replay_s)
      .Num("ops", static_cast<double>(ops))
      .Num("writes", static_cast<double>(writes))
      .Num("failed", static_cast<double>(failed))
      .Num("check_failures", static_cast<double>(check_failures))
      .Num("get_us", Median(get.us))
      .Num("put_us", Median(put.us))
      .Num("put_p99_us", Percentile(put.us, 0.99))
      .Num("put_max_ms", put.us.empty() ? 0 : *std::max_element(put.us.begin(), put.us.end()) / 1e3)
      .Num("rss_growth_bytes", (rss1 - rss0) * 1024.0)
      .Num("keys", keys);
  if (!batch.us.empty()) j.Num("getbatch_us_per_key", Median(batch.us) / chunk);
  if (!del.us.empty()) j.Num("delete_us", Median(del.us));
  if (!sync.us.empty())
    j.Num("sync_p50_us", Median(sync.us)).Num("sync_p99_us", Percentile(sync.us, 0.99));
  if (scan_rows > 0) j.Num("scan_us_per_row", scan.total_us / scan_rows);
  // Drop the engine first so its background work is settled in the dump.
  engine.reset();
  j.Raw("obs_preload", obs_preload).Raw("obs_end", RegistryJson());
  std::printf("RESULT %s\n", j.Done().c_str());
  return 0;
}

}  // namespace perfbench
