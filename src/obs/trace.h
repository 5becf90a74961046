// Span tracing for met::obs: a ScopedTimer RAII helper that records elapsed
// wall time into a Histogram, and a fixed-capacity ring-buffer TraceLog of
// recent spans (name, start, duration) for post-mortem dumps — when a merge
// pause or compaction stall is observed, the log shows what ran leading up
// to it without any always-on I/O.
//
// Span names must be string literals (or otherwise outlive the TraceLog);
// the ring buffer stores the pointer, not a copy.
#ifndef MET_OBS_TRACE_H_
#define MET_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace met::obs {

/// Monotonic nanoseconds since an arbitrary epoch.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Small dense id of the calling thread (0 for the first thread to ask,
/// 1 for the next, ...). Used to label trace spans so exported timelines
/// (prof/trace_export.h) keep the merge/flush threads on their own tracks.
inline uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

class TraceLog {
 public:
  struct Span {
    const char* name = nullptr;
    uint64_t start_nanos = 0;
    uint64_t duration_nanos = 0;
    uint32_t tid = 0;
  };

  static constexpr size_t kDefaultCapacity = 512;

  // Leaked like MetricsRegistry::Global(): at-exit dumps may run after
  // static destructors.
  static TraceLog& Global() {
    static TraceLog* log = new TraceLog(kDefaultCapacity);
    return *log;
  }

  explicit TraceLog(size_t capacity) : spans_(capacity) {}

  void Append(const char* name, uint64_t start_nanos, uint64_t duration_nanos) {
    uint32_t tid = CurrentThreadId();
    sync::MutexLock lock(mu_);
    spans_[next_ % spans_.size()] =
        Span{name, start_nanos, duration_nanos, tid};
    ++next_;
  }

  /// Grows (or shrinks) the retention ring. Retained spans are discarded;
  /// intended for process start, before tracing begins — the MET_TRACE_OUT
  /// exporter uses it so a whole bench run fits in one exported trace.
  void SetCapacity(size_t capacity) {
    if (capacity == 0) capacity = 1;
    sync::MutexLock lock(mu_);
    spans_.assign(capacity, Span{});
    next_ = 0;
  }

  /// Copies the retained spans, oldest first.
  std::vector<Span> Snapshot() const {
    sync::MutexLock lock(mu_);
    std::vector<Span> out;
    size_t n = next_ < spans_.size() ? next_ : spans_.size();
    out.reserve(n);
    for (size_t i = next_ - n; i < next_; ++i)
      out.push_back(spans_[i % spans_.size()]);
    return out;
  }

  uint64_t TotalSpans() const {
    sync::MutexLock lock(mu_);
    return next_;
  }

  void DumpText(FILE* f) const {
    auto spans = Snapshot();
    std::fprintf(f, "--- met::obs trace (%zu recent spans) ---\n", spans.size());
    for (const auto& s : spans)
      std::fprintf(f, "span %-40s tid=%u start=%llu dur_ns=%llu\n", s.name,
                   s.tid, static_cast<unsigned long long>(s.start_nanos),
                   static_cast<unsigned long long>(s.duration_nanos));
  }

  /// Appends a JSON array of {"name","start_ns","dur_ns"} objects.
  void DumpJson(std::string* out) const {
    auto spans = Snapshot();
    out->push_back('[');
    bool first = true;
    for (const auto& s : spans) {
      if (!first) out->push_back(',');
      first = false;
      out->append("{\"name\":\"");
      MetricsRegistry::AppendJsonEscaped(out, s.name);
      char buf[112];
      std::snprintf(buf, sizeof(buf),
                    "\",\"tid\":%u,\"start_ns\":%llu,\"dur_ns\":%llu}", s.tid,
                    static_cast<unsigned long long>(s.start_nanos),
                    static_cast<unsigned long long>(s.duration_nanos));
      out->append(buf);
    }
    out->push_back(']');
  }

  void Reset() {
    sync::MutexLock lock(mu_);
    next_ = 0;
  }

 private:
  mutable sync::Mutex mu_;
  std::vector<Span> spans_ MET_GUARDED_BY(mu_);
  size_t next_ MET_GUARDED_BY(mu_) = 0;  // total spans ever appended
};

/// Records the scope's wall time into `hist` (and, when `trace_name` is a
/// non-null literal, into the global TraceLog) at destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist, const char* trace_name = nullptr)
      : hist_(hist), trace_name_(trace_name), start_(NowNanos()) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    uint64_t dur = NowNanos() - start_;
    if (hist_ != nullptr) hist_->RecordNanos(dur);
    if (trace_name_ != nullptr) TraceLog::Global().Append(trace_name_, start_, dur);
  }

 private:
  Histogram* hist_;
  const char* trace_name_;
  uint64_t start_;
};

/// Records an instantaneous (zero-duration) event into the global TraceLog —
/// for rare, noteworthy occurrences (block quarantine, recovery actions)
/// rather than timed work. `name` must be a string literal.
inline void TraceEvent(const char* name) {
  TraceLog::Global().Append(name, NowNanos(), 0);
}

}  // namespace met::obs

#endif  // MET_OBS_TRACE_H_
