// met::obs — unified, zero-dependency observability layer (metrics + traces).
//
//   Counter / Gauge / Histogram   named instruments (metrics.h), registered
//                                 in the global MetricsRegistry under dotted
//                                 "subsystem.component.metric" names.
//   ScopedTimer / TraceLog        RAII span timing + a ring buffer of recent
//                                 spans (trace.h).
//   DumpAllText / DumpAllJson     exporters over registry + trace log.
//
// Runtime gating: instrument updates are always on (relaxed atomics; no
// allocation, no locks on the hot path). Setting MET_METRICS=1 additionally
// (a) dumps everything to stderr at process exit and (b) turns on per-op
// latency recording in the bench harness (bench/bench_util.h).
#ifndef MET_OBS_OBS_H_
#define MET_OBS_OBS_H_

#include <cstdlib>
#include <cstring>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace met::obs {

/// True when the MET_METRICS environment variable is set to a non-empty
/// value other than "0". Cached after the first call.
inline bool MetricsEnabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("MET_METRICS");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
  }();
  return enabled;
}

inline void DumpAllText(FILE* f) {
  MetricsRegistry::Global().DumpText(f);
  TraceLog::Global().DumpText(f);
}

/// Forces construction of the registry/trace singletons. Call before code
/// whose timing or determinism matters (e.g. met::race exploration): a
/// first-touch inside the measured/explored region would perturb it.
void WarmUp();

/// Appends {"metrics":{...},"trace":[...]}.
inline void DumpAllJson(std::string* out) {
  out->append("{\"metrics\":");
  MetricsRegistry::Global().DumpJson(out);
  out->append(",\"trace\":");
  TraceLog::Global().DumpJson(out);
  out->push_back('}');
}

namespace internal {

struct ExitDumpInstaller {
  ExitDumpInstaller() {
    if (MetricsEnabled()) std::atexit([] { DumpAllText(stderr); });
  }
};

// One instance per program (inline variable): constructed during static
// initialization of any TU that includes obs.h.
inline ExitDumpInstaller g_exit_dump_installer;

}  // namespace internal

}  // namespace met::obs

#endif  // MET_OBS_OBS_H_
