// met::batch — batch-size sweep for the FST group-prefetching lookup kernel.
//
// Executes the same uniform-random point-query stream at batch sizes 1
// through 256 through Fst::LookupBatch. batch=1 runs the ordinary scalar
// Fst::Lookup — the baseline every speedup column is relative to. Defaults
// to 10M random 64-bit integer keys plus half as many emails; `--keys N` /
// `--ops N` shrink it for CI smoke.
//
// Batched results are bit-identical to scalar by construction; checked
// builds (MET_CHECK=1 / Debug) re-verify every batch against the scalar
// path inline, so this bench doubles as a stress test there.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/index_api.h"
#include "common/timer.h"
#include "fst/fst.h"
#include "keys/keygen.h"
#include "prof/perf_counters.h"

using namespace met;

namespace {

constexpr size_t kBatches[] = {1, 4, 16, 64, 256};
constexpr size_t kMaxBatch = 256;

size_t reps = 5;  // --reps N: max-of-N per cell

/// Uniform query indices from a SplitMix64 stream (deliberately not Zipfian:
/// skew keeps hot nodes cache-resident and understates what prefetching
/// recovers on a cold working set).
std::vector<uint32_t> UniformIndices(size_t n, size_t ops, uint64_t seed) {
  std::vector<uint32_t> idx(ops);
  uint64_t x = seed;
  for (size_t i = 0; i < ops; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    idx[i] = static_cast<uint32_t>((z ^ (z >> 31)) % n);
  }
  return idx;
}

/// One perf_event group shared by every sweep cell (open once, reset per
/// measured pass). Unavailable counters (containers, MET_NO_PERF) simply
/// drop the hardware columns; rows then carry perf_available=0.
prof::PerfCounterSet& PerfSet() {
  static prof::PerfCounterSet set;
  return set;
}

void Report(const char* structure, const char* keyset, size_t batch,
            double mops, double speedup, const prof::PerfReading& perf,
            size_t ops) {
  std::printf("%-14s %-7s %6zu %10.2f %9.2fx", structure, keyset, batch, mops,
              speedup);
  if (perf.has(prof::PerfReading::kLlcMisses) && ops > 0)
    std::printf(" %10.2f", static_cast<double>(perf.llc_misses) /
                               static_cast<double>(ops));
  else
    std::printf(" %10s", "n/a");
  std::printf("\n");
  std::vector<bench::Reporter::Field> fields = {{"structure", structure},
                                                {"keyset", keyset},
                                                {"batch", batch},
                                                {"mops", mops},
                                                {"speedup", speedup}};
  bench::AppendPerfFields(perf, ops, &fields);
  bench::Row(std::move(fields));
}

/// Sweeps kBatches: `scalar(i)` answers query i through the ordinary call
/// path; `batched(i0, cnt)` answers queries [i0, i0+cnt) in one batch call.
template <typename ScalarFn, typename BatchFn>
void Sweep(const char* structure, const char* keyset, size_t ops,
           ScalarFn&& scalar, BatchFn&& batched) {
  double base = 0;
  for (size_t b : kBatches) {
    // Max of `reps` repetitions: each cell is latency-bound and seconds
    // long, so the max is the least-interfered sample on a shared machine
    // (same treatment for the scalar baseline keeps the ratio fair).
    double mops = 0;
    for (size_t r = 0; r < reps; ++r) {
      double m;
      if (b == 1) {
        m = bench::Mops(ops, scalar);
      } else {
        met::Timer timer;
        for (size_t i = 0; i < ops; i += b) batched(i, std::min(b, ops - i));
        double s = timer.ElapsedSeconds();
        m = s <= 0 ? 0 : static_cast<double>(ops) / s / 1e6;
      }
      mops = std::max(mops, m);
    }
    // One extra untimed pass under the hardware-counter group so misses/op
    // rides along with the throughput columns (skipped entirely when the
    // counters never opened).
    prof::PerfReading perf;
    if (PerfSet().available()) {
      prof::PerfScope scope(&PerfSet());
      if (b == 1) {
        for (size_t i = 0; i < ops; ++i) scalar(i);
      } else {
        for (size_t i = 0; i < ops; i += b) batched(i, std::min(b, ops - i));
      }
      perf = scope.Stop();
    }
    if (b == 1) base = mops;
    Report(structure, keyset, b, mops, base > 0 ? mops / base : 1.0, perf,
           ops);
  }
}

void RunStringDataset(const char* keyset, const std::vector<std::string>& keys,
                      size_t ops) {
  size_t n = keys.size();
  auto qidx = UniformIndices(n, ops, 0x5eedull + n);
  std::vector<std::string_view> qkeys(ops);
  for (size_t i = 0; i < ops; ++i) qkeys[i] = keys[qidx[i]];
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = i + 1;

  std::vector<LookupResult> out(kMaxBatch);
  Fst fst;
  fst.Build(keys, values);
  Sweep(
      "FST", keyset, ops,
      [&](size_t i) {
        uint64_t v = 0;
        fst.Lookup(qkeys[i], &v);
        bench::Consume(v);
      },
      [&](size_t i0, size_t cnt) {
        fst.LookupBatch(&qkeys[i0], cnt, out.data());
        bench::Consume(out[cnt - 1].value);
      });
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter::Get().ParseArgs(&argc, argv);
  size_t num_keys = 10000000;
  size_t ops = 2000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--keys") == 0 && i + 1 < argc) {
      num_keys = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      num_keys = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      ops = std::strtoull(argv[i] + 6, nullptr, 10);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  if (num_keys < kMaxBatch) num_keys = kMaxBatch;
  if (ops < kMaxBatch) ops = kMaxBatch;
  if (reps == 0) reps = 1;

  bench::Title("met::batch: point-lookup throughput vs batch size");
  std::printf("  %zu int keys / %zu emails, %zu uniform queries\n", num_keys,
              num_keys / 2, ops);
  std::printf("%-14s %-7s %6s %10s %10s %10s\n", "Structure", "Keys", "Batch",
              "Mops/s", "Speedup", "LLCmiss/op");
  if (!PerfSet().available())
    std::printf("  (hardware counters unavailable: perf_event_open rejected "
                "or MET_NO_PERF set)\n");

  {
    auto ints = GenRandomInts(num_keys);
    SortUnique(&ints);
    RunStringDataset("int", ToStringKeys(ints), ops);
  }
  {
    auto emails = GenEmails(num_keys / 2);
    SortUnique(&emails);
    RunStringDataset("email", emails, ops);
  }
  bench::Note("group prefetching overlaps the DRAM misses of ~16 in-flight descents; wins scale with tree depth x miss cost");
  return 0;
}
