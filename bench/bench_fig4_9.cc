// Figure 4.9 — Closed-Seek Queries: LSM range queries whose empty-result
// percentage is controlled by the range size (Poisson inter-arrival math of
// Section 4.4: P(empty) = exp(-R/lambda) => R = lambda * ln(1/P)).
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"

using namespace met;

int main() {
  bench::Title("Figure 4.9: LSM closed-seek queries vs % empty ranges");
  size_t sensors = 200 * bench::Scale();
  size_t events = 2500;

  // Time-series load identical to Figure 4.8 (sensor-major insertion order,
  // so SSTables overlap in time and filters gate the block reads).
  Random gen(11);
  std::vector<std::pair<uint64_t, uint64_t>> ev;
  for (size_t s = 0; s < sensors; ++s) {
    uint64_t ts = gen.Uniform(200000000);
    for (size_t e = 0; e < events; ++e) {
      ts += static_cast<uint64_t>(-std::log(1 - gen.NextDouble()) * 2e8);
      ev.push_back({ts, s});
    }
  }
  std::string value(128, 'v');
  uint64_t max_ts = 0;
  for (auto& [ts, s] : ev) max_ts = std::max(max_ts, ts);
  // Aggregate event rate: sensors/0.2s => lambda (ns between events).
  double lambda = 2e8 / sensors;

  std::printf("%-10s %8s %14s %9s %9s\n", "Filter", "%empty", "range(ns)",
              "Kops/s", "IO/op");
  for (LsmFilterType filter :
       {LsmFilterType::kNone, LsmFilterType::kBloom, LsmFilterType::kSurfReal}) {
    LsmOptions opt;
    opt.dir = "/tmp/met_bench_fig4_9";
    opt.filter = filter;
    opt.bloom_bits_per_key = 14;
    opt.memtable_bytes = 4u << 20;
    opt.level1_bytes = 8u << 20;   // several populated levels, like the paper
    opt.level_multiplier = 4;
    opt.sstable_target_bytes = 4u << 20;
    opt.surf_suffix_bits = 4;
    opt.block_cache_blocks = 2048;
    LsmTree lsm(opt);
    for (auto& [ts, s] : ev)
      bench::CheckOk(lsm.Put(Uint64ToKey(ts) + Uint64ToKey(s), value), "Put");
    bench::CheckOk(lsm.Finish(), "Finish");

    for (double pct_empty : {10, 50, 90, 99}) {
      uint64_t range =
          static_cast<uint64_t>(lambda * std::log(100.0 / pct_empty));
      if (range == 0) range = 1;
      Random rng(5);
      size_t q = 10000;
      // Warm up.
      for (size_t i = 0; i < 2000; ++i) {
        uint64_t a = rng.Uniform(max_ts);
        lsm.ClosedSeek(Uint64ToKey(a), Uint64ToKey(a + range));
      }
      lsm.ResetStats();
      Timer t;
      size_t found = 0;
      for (size_t i = 0; i < q; ++i) {
        uint64_t a = rng.Uniform(max_ts);
        found += lsm.ClosedSeek(Uint64ToKey(a) + Uint64ToKey(0),
                                Uint64ToKey(a + range))
                     .has_value();
      }
      double kops = q / t.ElapsedSeconds() / 1e3;
      double io = static_cast<double>(lsm.stats().block_reads) / q;
      std::printf("%-10s %7.0f%% %14llu %9.1f %9.3f   (measured %4.0f%% empty)\n",
                  LsmFilterTypeName(filter), pct_empty,
                  static_cast<unsigned long long>(range), kops, io,
                  100.0 * (q - found) / q);
    }
  }
  bench::Note("paper: SuRF-Real speeds closed-seeks up to ~5x at 99% empty; Bloom is equivalent to no filter for ranges");
  return 0;
}
