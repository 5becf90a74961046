// Log-bucketed latency histogram for met::obs (see obs/obs.h for the layer
// overview). Values are bucketed HdrHistogram-style: one major bucket per
// power of two, each split into 2^kSubBits linear sub-buckets, so the
// relative quantile error is bounded by 2^-kSubBits (6.25% with 4 sub-bits)
// while Record() stays a handful of bit operations plus one relaxed
// fetch_add. Thread-safe; Record never allocates.
#ifndef MET_OBS_HISTOGRAM_H_
#define MET_OBS_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

namespace met::obs {

class Histogram {
 public:
  static constexpr uint32_t kSubBits = 4;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;
  // Values < kSubBuckets get exact unit buckets; every exponent above that
  // contributes kSubBuckets linear sub-buckets.
  static constexpr uint32_t kNumBuckets = (64 - kSubBits) * kSubBuckets + kSubBuckets;

  Histogram() { Reset(); }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    AtomicMin(&min_, value);
    AtomicMax(&max_, value);
  }

  /// Alias making call sites self-documenting when the unit is nanoseconds.
  void RecordNanos(uint64_t nanos) { Record(nanos); }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Min() const {
    return Count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  double Mean() const {
    uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  /// Value at quantile `p` in [0, 1] (p50 = Quantile(0.5)). Returns the
  /// midpoint of the bucket holding the target rank: relative error is at
  /// most half a sub-bucket width (~3.1%).
  uint64_t Quantile(double p) const {
    uint64_t n = Count();
    if (n == 0) return 0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    uint64_t target = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
    if (target < 1) target = 1;
    if (target > n) target = n;
    uint64_t cum = 0;
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
      cum += buckets_[i].load(std::memory_order_relaxed);
      if (cum >= target) return BucketMid(i);
    }
    return Max();  // racing Record(); best effort
  }

  /// Adds another histogram's population into this one.
  void Merge(const Histogram& other) {
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
      uint64_t c = other.buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) buckets_[i].fetch_add(c, std::memory_order_relaxed);
    }
    uint64_t n = other.count_.load(std::memory_order_relaxed);
    if (n == 0) return;
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    AtomicMin(&min_, other.min_.load(std::memory_order_relaxed));
    AtomicMax(&max_, other.max_.load(std::memory_order_relaxed));
  }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  static uint32_t BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<uint32_t>(v);
    uint32_t e = static_cast<uint32_t>(std::bit_width(v)) - 1;  // floor log2
    uint32_t sub =
        static_cast<uint32_t>((v >> (e - kSubBits)) & (kSubBuckets - 1));
    return (e - kSubBits + 1) * kSubBuckets + sub;
  }

  /// Inclusive lower bound of bucket `idx`.
  static uint64_t BucketLow(uint32_t idx) {
    if (idx < kSubBuckets) return idx;
    uint32_t e = idx / kSubBuckets + kSubBits - 1;
    uint64_t sub = idx % kSubBuckets;
    return (uint64_t{1} << e) + (sub << (e - kSubBits));
  }

  /// Representative (midpoint) value of bucket `idx`.
  static uint64_t BucketMid(uint32_t idx) {
    if (idx < kSubBuckets) return idx;
    uint32_t e = idx / kSubBuckets + kSubBits - 1;
    return BucketLow(idx) + (uint64_t{1} << (e - kSubBits)) / 2;
  }

 private:
  static void AtomicMin(std::atomic<uint64_t>* a, uint64_t v) {
    uint64_t cur = a->load(std::memory_order_relaxed);
    while (v < cur &&
           !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  static void AtomicMax(std::atomic<uint64_t>* a, uint64_t v) {
    uint64_t cur = a->load(std::memory_order_relaxed);
    while (v > cur &&
           !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> buckets_[kNumBuckets];
  std::atomic<uint64_t> count_;
  std::atomic<uint64_t> sum_;
  std::atomic<uint64_t> min_;
  std::atomic<uint64_t> max_;
};

}  // namespace met::obs

#endif  // MET_OBS_HISTOGRAM_H_
