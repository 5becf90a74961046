// met::guard observability — the `met.guard.*` metric family shared by the
// admission controller, deadline enforcement, dedup window and net-fault
// injector. One lazily-initialised struct of stable pointers, same idiom as
// ServeObsMetrics.
#ifndef MET_GUARD_METRICS_H_
#define MET_GUARD_METRICS_H_

#include "obs/metrics.h"

namespace met::guard {

struct GuardObsMetrics {
  obs::Counter* shed;            // met.guard.shed (requests refused)
  obs::Counter* shed_cost;       // met.guard.shed_cost (cost units refused)
  obs::Counter* deadline_admission;  // met.guard.deadline_admission
  obs::Counter* deadline_exec;       // met.guard.deadline_exec
  obs::Counter* dedup_hits;      // met.guard.dedup_hits (replayed write acks)
  obs::Counter* net_faults;      // met.guard.net_faults (injected socket faults)
  obs::Histogram* queue_delay_us;  // met.guard.queue_delay_us per dequeue
  obs::Gauge* overload_level;    // met.guard.overload_level (0..3)
  obs::Gauge* queued_cost;       // met.guard.queued_cost (last sampled shard)

  static const GuardObsMetrics& Get();
};

}  // namespace met::guard

#endif  // MET_GUARD_METRICS_H_
