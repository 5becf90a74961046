// Umbrella header for met::prof — memory attribution, heap/RSS gauges,
// hardware performance counters, and Chrome-trace export layered on
// met::obs.
//
// Including this header from a binary's TU also arms the MET_TRACE_OUT
// exporter (see trace_export.h); bench_util.h includes it so every bench
// binary supports trace export with no per-bench code.
#ifndef MET_PROF_PROF_H_
#define MET_PROF_PROF_H_

#include "prof/heap_stats.h"        // IWYU pragma: export
#include "prof/mem_stats.h"         // IWYU pragma: export
#include "prof/memory_breakdown.h"  // IWYU pragma: export
#include "prof/perf_counters.h"     // IWYU pragma: export
#include "prof/trace_export.h"      // IWYU pragma: export

#endif  // MET_PROF_PROF_H_
