// Merge-pause benchmark for the hybrid index (thesis Section 5.2 merges, as
// a serving shard sees them): one owner thread issues reads and inserts
// while a merge runs, and every operation's latency is recorded into an
// obs::StallSplit cell by whether it overlapped the merge.
//
// Two merge modes are compared across growing static-stage sizes:
//   inline      — HybridConfig::background_merge = false: the insert that
//                 crosses the trigger freezes, drains and adopts before it
//                 returns, so the owner stalls for the whole merge.
//   background  — the triggering insert only freezes and starts the drain
//                 thread; the owner keeps serving from the active, frozen and
//                 old static stages and adopts the result at the top of a
//                 later call, so read/write p99 should stay flat as the
//                 static stage grows.
//
// Rows report idle vs during-merge p50/p99/max per mode. `--json <path>` or
// MET_BENCH_JSON emit them as met.bench.v1; MET_TRACE_OUT exports the
// hybrid.merge.freeze / drain / adopt spans.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "hybrid/hybrid.h"
#include "obs/stall.h"

namespace met {
namespace {

// Preloads `num_keys` into the static stage, then runs 90% reads of
// preloaded keys / 10% inserts of fresh keys until the insert that crosses
// the trigger (num_keys / 10 dynamic entries) has merged and been adopted.
void RunPauseRow(const char* mode, bool background, size_t num_keys) {
  HybridConfig config;
  config.constant_trigger = true;
  config.constant_threshold = num_keys / 10;
  config.background_merge = background;
  HybridBTree<uint64_t> index(config);
  for (uint64_t i = 0; i < num_keys; ++i) index.Insert(i * 2, i + 1);
  index.Merge();  // static stage now holds the full preload
  const size_t merges_before = index.merge_stats().merge_count;

  obs::StallSplit stalls;
  Random rng(7);
  uint64_t next_key = num_keys * 4;  // fresh keys, disjoint from preload
  uint64_t found = 0;
  while (index.merge_stats().merge_count == merges_before) {
    bool is_read = rng.Uniform(10) != 0;
    bool merging = index.MergeInFlight();
    Timer t;
    if (is_read) {
      uint64_t v;
      found += index.Lookup(rng.Uniform(num_keys) * 2, &v) ? 1 : 0;
    } else {
      index.Insert(next_key++, 1);
    }
    uint64_t ns = t.ElapsedNanos();
    // An inline merge runs inside the triggering insert; a background one
    // spans from that insert to the call that adopts it.
    merging = merging || index.MergeInFlight() ||
              index.merge_stats().merge_count != merges_before;
    stalls.Record(is_read, merging, ns);
  }
  bench::Consume(found);

  const HybridMergeStats& st = index.merge_stats();
  const auto& ri = stalls.Reads(false);
  const auto& rm = stalls.Reads(true);
  const auto& wi = stalls.Writes(false);
  const auto& wm = stalls.Writes(true);
  std::printf(
      "  %-10s static=%8zu merge=%6.1fms | read idle p50/p99 %6llu/%8llu ns"
      " | read merge p99/max %8llu/%10llu ns (n=%llu) | write merge p99/max "
      "%8llu/%10llu ns\n",
      mode, st.last_merge_static_entries, st.last_merge_seconds * 1e3,
      (unsigned long long)ri.Quantile(0.5), (unsigned long long)ri.Quantile(0.99),
      (unsigned long long)rm.Quantile(0.99), (unsigned long long)rm.Max(),
      (unsigned long long)rm.Count(), (unsigned long long)wm.Quantile(0.99),
      (unsigned long long)wm.Max());
  bench::Row({{"mode", mode},
              {"static_entries", st.last_merge_static_entries},
              {"merge_ms", st.last_merge_seconds * 1e3},
              {"read_idle_p50_ns", ri.Quantile(0.5)},
              {"read_idle_p99_ns", ri.Quantile(0.99)},
              {"read_merge_p50_ns", rm.Quantile(0.5)},
              {"read_merge_p99_ns", rm.Quantile(0.99)},
              {"read_merge_max_ns", rm.Max()},
              {"read_merge_count", rm.Count()},
              {"write_idle_p99_ns", wi.Quantile(0.99)},
              {"write_merge_p99_ns", wm.Quantile(0.99)},
              {"write_merge_max_ns", wm.Max()}});
}

}  // namespace
}  // namespace met

int main(int argc, char** argv) {
  met::bench::Reporter::Get().ParseArgs(&argc, argv);
  met::bench::Title("Merge pause: one owner thread's stalls during a merge");
  met::bench::Note(
      "inline = the triggering insert drains the merge before returning; "
      "background = it only freezes, a drain thread builds the new static "
      "stage and a later call adopts it. The claim under test: background "
      "read/write p99 stays flat as the static stage grows");
  for (size_t num_keys : {100000, 300000, 900000}) {
    size_t n = num_keys * met::bench::Scale();
    met::RunPauseRow("inline", /*background=*/false, n);
    met::RunPauseRow("background", /*background=*/true, n);
  }
  met::bench::Reporter::Get().WriteIfEnabled();
  return 0;
}
