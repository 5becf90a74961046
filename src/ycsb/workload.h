// YCSB-style workload generation (workloads A, C, E plus the insert-only
// load phase), with Zipfian or uniform key-access distributions, mirroring
// the microbenchmark setup used throughout the thesis (Sections 2.5, 3.7,
// 4.3, 5.3).
#ifndef MET_YCSB_WORKLOAD_H_
#define MET_YCSB_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.h"
#include "common/random.h"

namespace met {

enum class YcsbOp : uint8_t { kRead, kUpdate, kInsert, kScan };

struct YcsbRequest {
  YcsbOp op;
  // 64-bit: a 32-bit index silently wrapped once num_keys + #inserts crossed
  // 4 billion (long insert-heavy runs, or large preloaded datasets), after
  // which a multi-threaded driver's thread-disjoint insert remap collided
  // thread keyspaces. Pinned by YcsbWorkloadTest.InsertIndicesSurviveFourBillion.
  uint64_t key_index;  // index into the dataset's key array
  uint16_t scan_length;
};

struct YcsbSpec {
  double read_fraction = 1.0;
  double update_fraction = 0.0;
  double scan_fraction = 0.0;
  // insert fraction = remainder
  bool zipfian = true;
  uint16_t max_scan_length = 100;
  uint64_t seed = 42;

  static YcsbSpec WorkloadA() { return {0.5, 0.5, 0.0, true, 100, 42}; }
  static YcsbSpec WorkloadC() { return {1.0, 0.0, 0.0, true, 100, 42}; }
  static YcsbSpec WorkloadE() { return {0.0, 0.0, 0.95, true, 100, 42}; }
};

/// Streaming request generator: one request per Next() call, no
/// materialized request vector — the network load generator draws from this
/// at send time. Deterministic for a given (num_keys, spec).
class YcsbRequestStream {
 public:
  YcsbRequestStream(size_t num_keys, const YcsbSpec& spec)
      : spec_(spec),
        num_keys_(num_keys),
        rng_(spec.seed),
        next_insert_(num_keys) {
    MET_ASSERT(num_keys > 0);
    // The Zipf sampler's zeta-series constructor is O(num_keys); build it
    // only when the spec actually draws Zipfian keys.
    if (spec_.zipfian)
      zipf_ = std::make_unique<ZipfGenerator>(num_keys, 0.99, spec.seed + 1);
  }

  YcsbRequest Next() {
    double p = rng_.NextDouble();
    YcsbRequest r{};
    uint64_t existing =
        spec_.zipfian ? zipf_->NextScrambled() : rng_.Uniform(num_keys_);
    if (p < spec_.read_fraction) {
      r = {YcsbOp::kRead, existing, 0};
    } else if (p < spec_.read_fraction + spec_.update_fraction) {
      r = {YcsbOp::kUpdate, existing, 0};
    } else if (p <
               spec_.read_fraction + spec_.update_fraction + spec_.scan_fraction) {
      uint16_t len = static_cast<uint16_t>(1 + rng_.Uniform(spec_.max_scan_length));
      r = {YcsbOp::kScan, existing, len};
    } else {
      r = {YcsbOp::kInsert, next_insert_++, 0};
    }
    return r;
  }

  /// First dataset index the next kInsert request will use.
  uint64_t next_insert_index() const { return next_insert_; }

 private:
  YcsbSpec spec_;
  uint64_t num_keys_;
  Random rng_;
  std::unique_ptr<ZipfGenerator> zipf_;  // null when spec_.zipfian is false
  uint64_t next_insert_;
};

/// Generates `num_ops` requests over a dataset of `num_keys` keys.
/// Reads/updates/scans pick existing key indices (Zipf-skewed if configured);
/// inserts pick indices in [num_keys, num_keys + #inserts) so callers can
/// reserve extra keys for insertion.
inline std::vector<YcsbRequest> GenYcsbRequests(size_t num_keys, size_t num_ops,
                                                const YcsbSpec& spec) {
  std::vector<YcsbRequest> reqs;
  reqs.reserve(num_ops);
  YcsbRequestStream stream(num_keys, spec);
  for (size_t i = 0; i < num_ops; ++i) reqs.push_back(stream.Next());
  return reqs;
}

}  // namespace met

#endif  // MET_YCSB_WORKLOAD_H_
