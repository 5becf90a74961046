// Figure 3.5 — FST vs Other Succinct Tries: point-query throughput and
// memory for FST against a baseline succinct trie (our stand-in for
// tx-trie/PDT: LOUDS-Sparse as three flat sequences with generic
// Poppy-style rank and binary-search select, no LOUDS-Dense, no
// SIMD/prefetch — bench/legacy_louds.h, DESIGN.md). All tries store
// complete keys.
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

  // "Earlier succinct trie" design point: sparse-only, every Section 3.6
  // optimization swapped for its generic alternative.
  bench::LegacyLoudsTrie baseline;
  baseline.Build(keys, values, /*max_dense_levels=*/0,
                 bench::LegacyOptions{false, false, false, false});
  Fst fst;
  fst.Build(keys, values);

  auto report = [&](const char* label, size_t bytes, auto&& lookup) {
    double mops = bench::Mops(q, [&](size_t i) {
      uint64_t v = 0;
      lookup(keys[queries[i].key_index], &v);
      met::bench::Consume(v);
    });
    std::printf("%-20s %-7s %10.2f %12.1f\n", label, name, mops,
                bench::Mb(bytes));
  };
  report("baseline-succinct", baseline.MemoryBytes(),
         [&](const std::string& k, uint64_t* v) { baseline.Lookup(k, v); });
  report("FST", fst.MemoryBytes(),
         [&](const std::string& k, uint64_t* v) { fst.Lookup(k, v); });
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunStandardBench(
      &argc, argv, "Figure 3.5: FST vs other succinct tries (full keys)",
      [] {
        std::printf("%-20s %-7s %10s %12s\n", "Trie", "Keys", "Mops/s",
                    "Memory(MB)");
      },
      [](const char* name, const std::vector<std::string>& keys) {
        Run(name, keys);
      },
      "paper: FST is 4-15x faster than tx-trie/PDT while smaller");
  return 0;
}
