// Process-heap counter storage for met::prof (see heap_stats.h).
// Always part of libmet so readers link everywhere; the counters only move
// when prof/heap_hook.cc (the met_heap_hook object library) is also linked.
#include "prof/heap_stats.h"

namespace met::prof {
namespace internal {

AllocStats g_heap_stats;
std::atomic<bool> g_heap_hook_active{false};

}  // namespace internal

int64_t HeapLiveBytes() {
  return internal::g_heap_stats.live_bytes.load(std::memory_order_relaxed);
}

uint64_t HeapTotalBytes() {
  return internal::g_heap_stats.total_bytes.load(std::memory_order_relaxed);
}

uint64_t HeapAllocCalls() {
  return internal::g_heap_stats.allocs.load(std::memory_order_relaxed);
}

bool HeapHookActive() {
  return internal::g_heap_hook_active.load(std::memory_order_relaxed);
}

}  // namespace met::prof
