// Named-metric registry for met::obs: Counter / Gauge / Histogram instances
// registered under dotted names ("subsystem.component.metric") with text and
// JSON exporters. Get*() returns a stable pointer — instrumented code fetches
// it once (usually into a function-local static or a member) and then updates
// it lock-free on the hot path; the registry mutex is only taken on
// registration and dump.
#ifndef MET_OBS_METRICS_H_
#define MET_OBS_METRICS_H_

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace met::obs {

class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

class MetricsRegistry {
 public:
  /// Process-wide registry. Intentionally leaked (never destroyed) so the
  /// at-exit dumps installed by obs.h / bench::Reporter — which run after
  /// ordinary static destructors — can still walk it safely.
  static MetricsRegistry& Global() {
    static MetricsRegistry* registry = new MetricsRegistry();
    return *registry;
  }

  Counter* GetCounter(std::string_view name) { return Get(&counters_, name); }
  Gauge* GetGauge(std::string_view name) { return Get(&gauges_, name); }
  Histogram* GetHistogram(std::string_view name) {
    return Get(&histograms_, name);
  }

  /// Lookup without creating; nullptr when the name was never registered.
  Counter* FindCounter(std::string_view name) const {
    sync::MutexLock lock(mu_);
    return Find(counters_, name);
  }
  Gauge* FindGauge(std::string_view name) const {
    sync::MutexLock lock(mu_);
    return Find(gauges_, name);
  }
  Histogram* FindHistogram(std::string_view name) const {
    sync::MutexLock lock(mu_);
    return Find(histograms_, name);
  }

  /// Collectors refresh sampled values (the process memory gauges,
  /// prof/mem_stats.cc) when a reader asks: every registered callback runs
  /// at the start of each DumpText/DumpJson/Collect. Events are counted
  /// where they happen, never published through a collector. The callback
  /// may call Get*/Find* and Gauge::Set freely (the registry mutex is not
  /// held while it runs).
  using CollectorId = uint64_t;

  CollectorId AddCollector(std::function<void()> fn) {
    sync::MutexLock lock(collector_mu_);
    CollectorId id = next_collector_id_++;
    collectors_.emplace_back(id, std::move(fn));
    return id;
  }

  void RemoveCollector(CollectorId id) {
    sync::MutexLock lock(collector_mu_);
    for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
      if (it->first == id) {
        collectors_.erase(it);
        return;
      }
    }
  }

  /// Runs every registered collector so counters reflect the live totals.
  void Collect() const {
    std::vector<std::function<void()>> fns;
    {
      sync::MutexLock lock(collector_mu_);
      fns.reserve(collectors_.size());
      for (const auto& [id, fn] : collectors_) fns.push_back(fn);
    }
    for (const auto& fn : fns) fn();
  }

  void DumpText(FILE* f) const {
    Collect();
    sync::MutexLock lock(mu_);
    std::fprintf(f, "--- met::obs metrics ---\n");
    for (const auto& [name, c] : counters_)
      std::fprintf(f, "counter   %-44s %" PRIu64 "\n", name.c_str(), c->Value());
    for (const auto& [name, g] : gauges_)
      std::fprintf(f, "gauge     %-44s %" PRId64 "\n", name.c_str(), g->Value());
    for (const auto& [name, h] : histograms_) {
      std::fprintf(f,
                   "histogram %-44s count=%" PRIu64 " mean=%.1f p50=%" PRIu64
                   " p90=%" PRIu64 " p99=%" PRIu64 " p999=%" PRIu64
                   " max=%" PRIu64 "\n",
                   name.c_str(), h->Count(), h->Mean(), h->Quantile(0.5),
                   h->Quantile(0.9), h->Quantile(0.99), h->Quantile(0.999),
                   h->Max());
    }
  }

  /// Appends a JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  void DumpJson(std::string* out) const {
    Collect();
    sync::MutexLock lock(mu_);
    char buf[160];
    out->append("{\"counters\":{");
    bool first = true;
    for (const auto& [name, c] : counters_) {
      if (!first) out->append(",");
      first = false;
      AppendJsonKey(out, name);
      std::snprintf(buf, sizeof(buf), "%" PRIu64, c->Value());
      out->append(buf);
    }
    out->append("},\"gauges\":{");
    first = true;
    for (const auto& [name, g] : gauges_) {
      if (!first) out->append(",");
      first = false;
      AppendJsonKey(out, name);
      std::snprintf(buf, sizeof(buf), "%" PRId64, g->Value());
      out->append(buf);
    }
    out->append("},\"histograms\":{");
    first = true;
    for (const auto& [name, h] : histograms_) {
      if (!first) out->append(",");
      first = false;
      AppendJsonKey(out, name);
      std::snprintf(buf, sizeof(buf),
                    "{\"count\":%" PRIu64 ",\"sum\":%" PRIu64 ",\"min\":%" PRIu64
                    ",\"max\":%" PRIu64 ",\"mean\":%.3f,\"p50\":%" PRIu64
                    ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64 ",\"p999\":%" PRIu64
                    "}",
                    h->Count(), h->Sum(), h->Min(), h->Max(), h->Mean(),
                    h->Quantile(0.5), h->Quantile(0.9), h->Quantile(0.99),
                    h->Quantile(0.999));
      out->append(buf);
    }
    out->append("}}");
  }

  /// Zeroes every counter and histogram (gauges keep their level). Intended
  /// for tests and for delta dumps between workload phases.
  void ResetAll() {
    sync::MutexLock lock(mu_);
    for (auto& [name, c] : counters_) c->Reset();
    for (auto& [name, h] : histograms_) h->Reset();
  }

  static void AppendJsonEscaped(std::string* out, std::string_view s) {
    for (char ch : s) {
      switch (ch) {
        case '"':
          out->append("\\\"");
          break;
        case '\\':
          out->append("\\\\");
          break;
        case '\n':
          out->append("\\n");
          break;
        case '\t':
          out->append("\\t");
          break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
            out->append(buf);
          } else {
            out->push_back(ch);
          }
      }
    }
  }

 private:
  MetricsRegistry() = default;

  template <typename T>
  using Map = std::map<std::string, std::unique_ptr<T>, std::less<>>;

  template <typename T>
  T* Get(Map<T>* map, std::string_view name) MET_EXCLUDES(mu_) {
    sync::MutexLock lock(mu_);
    auto it = map->find(name);
    if (it == map->end())
      it = map->emplace(std::string(name), std::make_unique<T>()).first;
    return it->second.get();
  }

  /// Static helper: callers hold mu_ (the maps are guarded; Find itself
  /// cannot express that for a by-reference parameter).
  template <typename T>
  static T* Find(const Map<T>& map, std::string_view name)
      MET_NO_THREAD_SAFETY_ANALYSIS {
    auto it = map.find(name);
    return it == map.end() ? nullptr : it->second.get();
  }

  static void AppendJsonKey(std::string* out, std::string_view name) {
    out->push_back('"');
    AppendJsonEscaped(out, name);
    out->append("\":");
  }

  mutable sync::Mutex mu_;
  Map<Counter> counters_ MET_GUARDED_BY(mu_);
  Map<Gauge> gauges_ MET_GUARDED_BY(mu_);
  Map<Histogram> histograms_ MET_GUARDED_BY(mu_);

  mutable sync::Mutex collector_mu_;
  CollectorId next_collector_id_ MET_GUARDED_BY(collector_mu_) = 1;
  std::vector<std::pair<CollectorId, std::function<void()>>> collectors_
      MET_GUARDED_BY(collector_mu_);
};

}  // namespace met::obs

#endif  // MET_OBS_METRICS_H_
