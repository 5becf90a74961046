// Stall attribution for index serving: one latency histogram per (operation
// class, merge phase) cell, so benchmarks can report how much a merge
// inflates read/write tail latency relative to the idle baseline
// (bench/bench_merge_pause.cc). Thread-safe: Histogram recording is
// lock-free.
#ifndef MET_OBS_STALL_H_
#define MET_OBS_STALL_H_

#include <cstdint>

#include "obs/histogram.h"

namespace met::obs {

/// Four-way split of operation latencies: reads vs writes, recorded while a
/// merge is in flight vs while the index is idle.
class StallSplit {
 public:
  StallSplit() = default;
  StallSplit(const StallSplit&) = delete;
  StallSplit& operator=(const StallSplit&) = delete;

  void Record(bool is_read, bool merge_inflight, uint64_t nanos) {
    Cell(is_read, merge_inflight).RecordNanos(nanos);
  }

  const Histogram& Reads(bool merge_inflight) const {
    return merge_inflight ? read_merge_ : read_idle_;
  }
  const Histogram& Writes(bool merge_inflight) const {
    return merge_inflight ? write_merge_ : write_idle_;
  }

  void Reset() {
    read_idle_.Reset();
    read_merge_.Reset();
    write_idle_.Reset();
    write_merge_.Reset();
  }

 private:
  Histogram& Cell(bool is_read, bool merge_inflight) {
    if (is_read) return merge_inflight ? read_merge_ : read_idle_;
    return merge_inflight ? write_merge_ : write_idle_;
  }

  Histogram read_idle_;
  Histogram read_merge_;
  Histogram write_idle_;
  Histogram write_merge_;
};

}  // namespace met::obs

#endif  // MET_OBS_STALL_H_
