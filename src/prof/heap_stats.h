// met::prof process heap counters: the ground truth that MemoryBreakdown
// totals are cross-checked against.
//
// Live and total bytes across *all* operator new/delete traffic. The
// counters live in libmet (heap_stats.cc) and are always readable, but only
// move when the optional `met_heap_hook` object library (prof/heap_hook.cc,
// which replaces the global operator new/delete) is linked into the binary.
// HeapHookActive() reports whether the hook is present. HeapScope snapshots
// live bytes around a build so tests can compare "bytes the structure
// claims" against "bytes the heap actually grew".
#ifndef MET_PROF_HEAP_STATS_H_
#define MET_PROF_HEAP_STATS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace met::prof {

/// Byte/call counters the heap hook charges. All updates are relaxed
/// atomics; safe to share across threads.
struct AllocStats {
  std::atomic<int64_t> live_bytes{0};
  std::atomic<uint64_t> total_bytes{0};
  std::atomic<uint64_t> allocs{0};

  void OnAlloc(size_t bytes) {
    live_bytes.fetch_add(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
    total_bytes.fetch_add(bytes, std::memory_order_relaxed);
    allocs.fetch_add(1, std::memory_order_relaxed);
  }

  void OnFree(size_t bytes) {
    live_bytes.fetch_sub(static_cast<int64_t>(bytes),
                         std::memory_order_relaxed);
  }
};

// ---- process-wide heap counters (fed by prof/heap_hook.cc when linked) ----

/// Heap bytes currently live (allocated minus freed through operator
/// new/delete). Zero when the hook is not linked.
int64_t HeapLiveBytes();

/// Cumulative bytes ever allocated through operator new. Zero without hook.
uint64_t HeapTotalBytes();

/// Number of operator-new calls observed. Zero without hook.
uint64_t HeapAllocCalls();

/// True when the met_heap_hook object library replaced operator new/delete
/// in this binary.
bool HeapHookActive();

/// RAII delta of live heap bytes: construct before building a structure,
/// call LiveDelta() after — the result is how much the heap actually grew.
/// Meaningful only when HeapHookActive().
class HeapScope {
 public:
  HeapScope() : start_live_(HeapLiveBytes()) {}

  int64_t LiveDelta() const { return HeapLiveBytes() - start_live_; }

 private:
  int64_t start_live_;
};

namespace internal {
// Defined in heap_stats.cc (always in libmet); heap_hook.cc updates them.
extern AllocStats g_heap_stats;
extern std::atomic<bool> g_heap_hook_active;
}  // namespace internal

}  // namespace met::prof

#endif  // MET_PROF_HEAP_STATS_H_
