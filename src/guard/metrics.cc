#include "guard/metrics.h"

namespace met::guard {

const GuardObsMetrics& GuardObsMetrics::Get() {
  static const GuardObsMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    GuardObsMetrics x;
    x.shed = reg.GetCounter("met.guard.shed");
    x.shed_cost = reg.GetCounter("met.guard.shed_cost");
    x.deadline_admission = reg.GetCounter("met.guard.deadline_admission");
    x.deadline_exec = reg.GetCounter("met.guard.deadline_exec");
    x.dedup_hits = reg.GetCounter("met.guard.dedup_hits");
    x.net_faults = reg.GetCounter("met.guard.net_faults");
    x.queue_delay_us = reg.GetHistogram("met.guard.queue_delay_us");
    x.overload_level = reg.GetGauge("met.guard.overload_level");
    x.queued_cost = reg.GetGauge("met.guard.queued_cost");
    return x;
  }();
  return m;
}

}  // namespace met::guard
