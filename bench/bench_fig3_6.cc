// Figure 3.6 — FST Performance Breakdown: point-query speedup from
// LOUDS-Dense and each Section 3.6 optimization, applied cumulatively on
// top of the LOUDS-Sparse + Poppy baseline. The first six steps run the
// earlier three-array layout (bench/legacy_louds.h), whose toggles name
// separate code paths; the last step is the production Fst, whose
// cache-line blocks carry the rank and child pointer inline.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/legacy_louds.h"
#include "fst/fst.h"
#include "keys/keygen.h"
#include "ycsb/workload.h"

using namespace met;

namespace {

void Run(const char* name, const std::vector<std::string>& keys) {
  size_t q = 1000000;
  auto queries = GenYcsbRequests(keys.size(), q, YcsbSpec::WorkloadC());
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;

  struct Step {
    const char* label;
    int dense;  // max_dense_levels: 0 sparse-only, -1 automatic
    bench::LegacyOptions opts;
  } steps[] = {
      {"LOUDS-Sparse (baseline)", 0, {false, false, false, false}},
      {"+LOUDS-Dense", -1, {false, false, false, false}},
      {"+rank-opt", -1, {true, false, false, false}},
      {"+select-opt", -1, {true, true, false, false}},
      {"+SIMD-search", -1, {true, true, true, false}},
      {"+prefetching", -1, {true, true, true, true}},
  };

  auto report = [&](const char* label, auto&& lookup) {
    double mops = bench::Mops(q, [&](size_t i) {
      uint64_t v = 0;
      lookup(keys[queries[i].key_index], &v);
      met::bench::Consume(v);
    });
    std::printf("%-26s %-7s %10.2f\n", label, name, mops);
    bench::Row({{"config", label}, {"keys", name}, {"mops", mops}});
  };
  for (const auto& s : steps) {
    bench::LegacyLoudsTrie t;
    t.Build(keys, values, s.dense, s.opts);
    report(s.label, [&](const std::string& k, uint64_t* v) { t.Lookup(k, v); });
  }
  Fst fst;
  fst.Build(keys, values);
  report("+cache-line blocks (FST)",
         [&](const std::string& k, uint64_t* v) { fst.Lookup(k, v); });
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunStandardBench(
      &argc, argv,
      "Figure 3.6: FST optimization breakdown (point query Mops/s)",
      [] { std::printf("%-26s %-7s %10s\n", "Configuration", "Keys", "Mops/s"); },
      [](const char* name, const std::vector<std::string>& keys) {
        Run(name, keys);
      },
      "paper: LOUDS-Dense gives the large jump; the remaining optimizations add 3-12%");
  return 0;
}
