#include "prof/mem_stats.h"

#include <cstdio>
#include <mutex>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/obs.h"
#include "prof/heap_stats.h"

namespace met::prof {

ProcMemInfo ReadProcMem() {
  ProcMemInfo info;
#if defined(__linux__)
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return info;
  unsigned long long vm_pages = 0, rss_pages = 0;
  int n = std::fscanf(f, "%llu %llu", &vm_pages, &rss_pages);
  std::fclose(f);
  if (n != 2) return info;
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  info.vm_bytes = vm_pages * static_cast<uint64_t>(page);
  info.rss_bytes = rss_pages * static_cast<uint64_t>(page);
  info.valid = true;
#endif
  return info;
}

ProcMemInfo SampleMemGauges() {
  ProcMemInfo info = ReadProcMem();
  auto& reg = obs::MetricsRegistry::Global();
  if (info.valid) {
    reg.GetGauge("met.mem.rss_bytes")->Set(static_cast<int64_t>(info.rss_bytes));
    reg.GetGauge("met.mem.vm_bytes")->Set(static_cast<int64_t>(info.vm_bytes));
  }
  if (HeapHookActive())
    reg.GetGauge("met.mem.heap_live_bytes")->Set(HeapLiveBytes());
  return info;
}

void InstallMemCollector() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::MetricsRegistry::Global().AddCollector([] { SampleMemGauges(); });
  });
}

void SetLogicalIndexBytes(size_t bytes) {
  obs::MetricsRegistry::Global()
      .GetGauge("met.mem.logical_index_bytes")
      ->Set(static_cast<int64_t>(bytes));
}

void AddLogicalIndexBytes(int64_t delta) {
  obs::MetricsRegistry::Global()
      .GetGauge("met.mem.logical_index_bytes")
      ->Add(delta);
}

}  // namespace met::prof
