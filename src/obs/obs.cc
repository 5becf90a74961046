// Anchor translation unit for met::obs. The layer itself is header-only
// (obs.h / metrics.h / histogram.h / trace.h); this file guarantees the
// library always contains one TU that instantiates the registry, trace log,
// and exit-dump installer even if no other compiled source includes obs.h.
#include "obs/obs.h"

namespace met::obs {

// Touch the singletons so their construction (and, under MET_METRICS, the
// at-exit dump registration) cannot be dead-stripped from the static library.
void WarmUp() {
  (void)MetricsRegistry::Global();  // construction side effect is the point
  (void)TraceLog::Global();         // ditto
}

}  // namespace met::obs
