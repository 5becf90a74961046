// Figure 4.8 — RocksDB (mini-LSM) Point and Open-Seek queries under four
// filter configurations: none, Bloom, SuRF-Hash, SuRF-Real. The synthetic
// time-series dataset follows Section 4.4: keys are 128-bit
// (timestamp | sensor-id), values are fixed-size blobs, events arrive
// Poisson-spaced. Throughput is inversely proportional to block I/O.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"

using namespace met;

namespace {

struct Workload {
  std::vector<std::string> keys;  // all event keys, time order
  std::string value;
};

Workload MakeTimeSeries(size_t sensors, size_t events_per_sensor) {
  // Event inter-arrival ~ Exp(lambda), lambda = 1 / 0.2s in ns.
  // Insertion is sensor-major (each sensor's full Poisson stream in turn),
  // so every SSTable spans a wide timestamp range and the levels overlap —
  // the regime where per-table filters decide which tables to read.
  Workload w;
  Random rng(11);
  for (size_t s = 0; s < sensors; ++s) {
    uint64_t ts = rng.Uniform(200000000);  // random start within 0.2s
    for (size_t e = 0; e < events_per_sensor; ++e) {
      double u = rng.NextDouble();
      ts += static_cast<uint64_t>(-std::log(1 - u) * 2e8);  // mean 0.2s (ns)
      w.keys.push_back(Uint64ToKey(ts) + Uint64ToKey(s));
    }
  }
  w.value.assign(128, 'v');
  return w;
}

}  // namespace

int main() {
  bench::Title("Figure 4.8: LSM point & open-seek queries by filter type");
  size_t sensors = 200 * bench::Scale();
  size_t events = 2500;
  Workload w = MakeTimeSeries(sensors, events);
  std::printf("dataset: %zu events, ~%.0f MB raw\n", w.keys.size(),
              bench::Mb(w.keys.size() * (16 + w.value.size())));
  std::printf("%-10s | %-10s %9s %9s | %-9s %9s %9s | %9s\n", "Filter",
              "Point", "Kops/s", "IO/op", "OpenSeek", "Kops/s", "IO/op",
              "FilterMB");

  for (LsmFilterType filter :
       {LsmFilterType::kNone, LsmFilterType::kBloom, LsmFilterType::kSurfHash,
        LsmFilterType::kSurfReal}) {
    LsmOptions opt;
    opt.dir = "/tmp/met_bench_fig4_8";
    opt.filter = filter;
    opt.bloom_bits_per_key = 14;
    opt.memtable_bytes = 4u << 20;
    opt.level1_bytes = 8u << 20;   // several populated levels, like the paper
    opt.level_multiplier = 4;
    opt.sstable_target_bytes = 4u << 20;
    opt.surf_suffix_bits = 4;
    opt.block_cache_blocks = 2048;  // ~8 MB: dataset >> cache
    LsmTree lsm(opt);
    for (const auto& k : w.keys) bench::CheckOk(lsm.Put(k, w.value), "Put");
    bench::CheckOk(lsm.Finish(), "Finish");

    Random rng(3);
    uint64_t max_ts = KeyToUint64(w.keys.back());
    size_t q = 10000;

    // Warm the cache with existing-key point reads (Section 4.4 warms every
    // SSTable ~1000 times).
    for (size_t i = 0; i < q; ++i)
      lsm.Lookup(w.keys[rng.Uniform(w.keys.size())]);

    lsm.ResetStats();
    Timer t1;
    for (size_t i = 0; i < q; ++i) {
      std::string key = Uint64ToKey(rng.Uniform(max_ts)) +
                        Uint64ToKey(rng.Uniform(sensors));
      lsm.Lookup(key);  // random keys: almost always absent
    }
    double point_kops = q / t1.ElapsedSeconds() / 1e3;
    double point_io = static_cast<double>(lsm.stats().block_reads) / q;

    lsm.ResetStats();
    Timer t2;
    for (size_t i = 0; i < q; ++i) {
      std::string key = Uint64ToKey(rng.Uniform(max_ts)) +
                        Uint64ToKey(rng.Uniform(sensors));
      lsm.Seek(key);
    }
    double seek_kops = q / t2.ElapsedSeconds() / 1e3;
    double seek_io = static_cast<double>(lsm.stats().block_reads) / q;

    std::printf("%-10s | %-10s %9.1f %9.3f | %-9s %9.1f %9.3f | %9.1f\n",
                LsmFilterTypeName(filter), "", point_kops, point_io, "",
                seek_kops, seek_io, bench::Mb(lsm.FilterMemoryBytes()));
  }
  bench::Note("paper: filters cut point-query I/O; SuRF-Real reduces open-seek I/O to ~1.02/op (~1.5x speedup), Bloom does not help seeks");
  return 0;
}
