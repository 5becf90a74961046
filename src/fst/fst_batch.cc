// Batched FST lookup (the met::batch pipeline).
//
// A point lookup is a chain of dependent cache misses: each descent step
// reads lines whose addresses are only known after the previous step
// resolves. One probe therefore spends most of its time stalled.
// LookupPathBatch runs a group of 16 probes as interleaved state machines:
// each round advances every live probe by one level with the same per-level
// step the scalar LookupPath runs (Fst::Step, fst/fst_step.h), and a probe
// then issues the software prefetches for its *next* step before yielding,
// so its lines stream in while the other 15 probes execute (AMAC-style group
// prefetching; see DESIGN.md "Batched execution").
//
// The next step's lines are the D-Labels/D-HasChild words and rank-LUT
// entries of a dense level, or the sparse block the child scan starts in
// (which, for most nodes, also holds the child's labels). Results are
// bit-identical to scalar ones by construction; checked builds assert that
// per key.
#include <algorithm>

#include "fst/fst.h"
#include "fst/fst_step.h"

namespace met {

void Fst::LookupPathBatch(const std::string_view* keys, size_t n,
                          PathResult* out) const {
  for (size_t i = 0; i < n; ++i) out[i] = PathResult{};
  if (n == 0 || num_leaves_ == 0) return;

  // Group scheduler: 16 probes run as interleaved state machines and the
  // group drains fully before the next is admitted. (A slot-refill variant —
  // re-arming a finished probe's slot immediately — measured *slower* at
  // batch >= 64 here: steady-state admission keeps extra first-stage
  // prefetches in flight alongside mid-descent probes, oversubscribing the
  // core's fill buffers. The drain tail costs less than that contention.)
  constexpr size_t kGroup = 16;
  Cursor cursors[kGroup];
  bool live[kGroup];
  for (size_t base = 0; base < n; base += kGroup) {
    const size_t g = std::min(kGroup, n - base);
    for (size_t i = 0; i < g; ++i) {
      cursors[i] = Cursor{};
      live[i] = true;
      PrefetchStep(keys[base + i], cursors[i]);
    }
    size_t active = g;
    while (active > 0) {
      for (size_t i = 0; i < g; ++i) {
        if (!live[i]) continue;
        if (Step(keys[base + i], &cursors[i], &out[base + i])) {
          PrefetchStep(keys[base + i], cursors[i]);
        } else {
          live[i] = false;
          --active;
        }
      }
    }
  }

#if MET_CHECK_ENABLED
  for (size_t i = 0; i < n; ++i) {
    PathResult ref = LookupPath(keys[i]);
    MET_DCHECK(out[i].found == ref.found && out[i].leaf_id == ref.leaf_id &&
                   out[i].depth == ref.depth &&
                   out[i].is_prefix_leaf == ref.is_prefix_leaf,
               "batched LookupPath diverged from scalar");
  }
#endif
}

void Fst::LookupBatch(const std::string_view* keys, size_t n,
                      LookupResult* out) const {
  constexpr size_t kChunk = 64;
  PathResult paths[kChunk];
  const bool full_key = config_.mode == FstConfig::Mode::kFullKey;
  for (size_t base = 0; base < n; base += kChunk) {
    const size_t g = std::min(kChunk, n - base);
    LookupPathBatch(keys + base, g, paths);
    if (!values_.empty()) {
      for (size_t i = 0; i < g; ++i)
        if (paths[i].found) PrefetchRead(&values_[paths[i].leaf_id]);
    }
    for (size_t i = 0; i < g; ++i) {
      // Same acceptance rule as scalar Lookup: full-key mode rejects longer
      // keys that merely pass through a terminal.
      bool hit = paths[i].found &&
                 (!full_key || paths[i].depth == keys[base + i].size());
      out[base + i].found = hit;
      out[base + i].value =
          hit && !values_.empty() ? values_[paths[i].leaf_id] : 0;
    }
  }
}

}  // namespace met
