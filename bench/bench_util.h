// Shared helpers for the per-figure benchmark harnesses.
//
// Every bench binary prints the rows/series of one table or figure from the
// thesis. Dataset sizes default to laptop scale; set MET_SCALE=<n> to
// multiply them.
//
// Machine-readable output: every bench can additionally emit its sections,
// rows, and the full met::obs metric registry as JSON. Enable it with the
// MET_BENCH_JSON=<path> environment variable (works for all binaries with no
// code change) or, in binaries that call Reporter::ParseArgs from main, with
// a `--json <path>` flag. CI archives these files as BENCH_*.json so perf
// trajectories can be diffed across commits.
#ifndef MET_BENCH_BENCH_UTIL_H_
#define MET_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.h"
#include "io/status.h"
#include "keys/keygen.h"
#include "obs/obs.h"
#include "prof/prof.h"  // arms MET_TRACE_OUT export for every bench binary

namespace met::bench {

namespace internal {
// Any bench TU pulls in the met.mem.* gauges (RSS/heap-live/logical bytes
// refresh on every obs dump, including the met.bench.v1 "obs" section).
struct MemCollectorInstaller {
  MemCollectorInstaller() { prof::InstallMemCollector(); }
};
inline MemCollectorInstaller g_mem_collector_installer;
}  // namespace internal

/// Exits non-zero with the status message when `st` is not OK: a bench
/// whose storage calls failed must not print figures.
inline void CheckOk(const io::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

/// Optimization sink: accumulate query results here so the compiler cannot
/// eliminate inlined lookup loops as dead code.
inline volatile uint64_t sink = 0;

template <typename T>
inline void Consume(const T& x) {
  sink = sink + static_cast<uint64_t>(x);
}

inline size_t Scale() {
  const char* s = std::getenv("MET_SCALE");
  if (s == nullptr) return 1;
  long v = std::atol(s);
  return v < 1 ? 1 : static_cast<size_t>(v);
}

/// Collects bench output as structured sections/rows and writes one JSON
/// document (plus the obs metric registry and trace log) at process exit.
/// Inert unless --json/MET_BENCH_JSON selects an output path.
class Reporter {
 public:
  struct Field {
    Field(const char* k, double v) : key(k), is_number(true), number(v) {}
    Field(const char* k, int v) : Field(k, static_cast<double>(v)) {}
    Field(const char* k, size_t v) : Field(k, static_cast<double>(v)) {}
    Field(const char* k, const char* v) : key(k), text(v) {}
    Field(const char* k, const std::string& v) : key(k), text(v) {}

    std::string key;
    bool is_number = false;
    double number = 0;
    std::string text;
  };

  // Leaked (never destroyed): the at-exit hook registered in the
  // constructor must still find a live object after static destructors run.
  static Reporter& Get() {
    static Reporter* reporter = new Reporter();
    return *reporter;
  }

  /// Consumes a `--json <path>` / `--json=<path>` flag from argv (so later
  /// argument parsers never see it).
  void ParseArgs(int* argc, char** argv) {
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
        SetPath(argv[++i]);
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        SetPath(argv[i] + 7);
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
  }

  void SetPath(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }

  void Section(const std::string& title) {
    if (!enabled()) return;
    sections_.push_back({title, {}, {}});
  }

  void AddNote(const std::string& note) {
    if (!enabled()) return;
    EnsureSection();
    sections_.back().notes.push_back(note);
  }

  void Row(std::initializer_list<Field> fields) {
    if (!enabled()) return;
    EnsureSection();
    sections_.back().rows.emplace_back(fields);
  }

  void Row(std::vector<Field> fields) {
    if (!enabled()) return;
    EnsureSection();
    sections_.back().rows.push_back(std::move(fields));
  }

  /// Writes the JSON document. Safe to call explicitly from main(); the
  /// at-exit hook then becomes a no-op.
  void WriteIfEnabled() {
    if (!enabled() || written_) return;
    written_ = true;
    std::string json;
    json.append("{\"schema\":\"met.bench.v1\",\"sections\":[");
    for (size_t s = 0; s < sections_.size(); ++s) {
      if (s != 0) json.push_back(',');
      json.append("{\"title\":\"");
      obs::MetricsRegistry::AppendJsonEscaped(&json, sections_[s].title);
      json.append("\",\"notes\":[");
      for (size_t n = 0; n < sections_[s].notes.size(); ++n) {
        if (n != 0) json.push_back(',');
        json.push_back('"');
        obs::MetricsRegistry::AppendJsonEscaped(&json, sections_[s].notes[n]);
        json.push_back('"');
      }
      json.append("],\"rows\":[");
      for (size_t r = 0; r < sections_[s].rows.size(); ++r) {
        if (r != 0) json.push_back(',');
        json.push_back('{');
        const auto& row = sections_[s].rows[r];
        for (size_t f = 0; f < row.size(); ++f) {
          if (f != 0) json.push_back(',');
          json.push_back('"');
          obs::MetricsRegistry::AppendJsonEscaped(&json, row[f].key);
          json.append("\":");
          if (row[f].is_number) {
            char buf[48];
            std::snprintf(buf, sizeof(buf), "%.6g", row[f].number);
            json.append(buf);
          } else {
            json.push_back('"');
            obs::MetricsRegistry::AppendJsonEscaped(&json, row[f].text);
            json.push_back('"');
          }
        }
        json.push_back('}');
      }
      json.append("]}");
    }
    json.append("],\"obs\":");
    obs::DumpAllJson(&json);
    json.append("}\n");

    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write JSON to %s\n", path_.c_str());
      return;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }

 private:
  struct SectionData {
    std::string title;
    std::vector<std::string> notes;
    std::vector<std::vector<Field>> rows;
  };

  Reporter() {
    const char* p = std::getenv("MET_BENCH_JSON");
    if (p != nullptr && p[0] != '\0') path_ = p;
    std::atexit([] { Reporter::Get().WriteIfEnabled(); });
  }

  void EnsureSection() {
    if (sections_.empty()) sections_.push_back({"(default)", {}, {}});
  }

  std::string path_;
  bool written_ = false;
  std::vector<SectionData> sections_;
};

inline void Title(const char* title) {
  std::printf("\n=== %s ===\n", title);
  Reporter::Get().Section(title);
}

inline void Note(const char* note) {
  std::printf("  (%s)\n", note);
  Reporter::Get().AddNote(note);
}

/// Adds one figure/table row to the JSON report (no-op unless JSON output is
/// enabled). Callers still printf their human-readable line as before.
inline void Row(std::initializer_list<Reporter::Field> fields) {
  Reporter::Get().Row(fields);
}

inline void Row(std::vector<Reporter::Field> fields) {
  Reporter::Get().Row(std::move(fields));
}

/// Runs `fn(i)` for i in [0, ops) and returns million ops per second.
/// When runtime metrics are on (MET_METRICS=1), each op is timed
/// individually into the `latency_hist` obs histogram, so every bench gets
/// p50/p99 per-op latency reporting for free (at the cost of two clock
/// reads per op — throughput numbers from such runs are not comparable to
/// default runs).
template <typename Fn>
double Mops(size_t ops, Fn&& fn,
            const char* latency_hist = "bench.op_latency_ns") {
  if (obs::MetricsEnabled() && latency_hist != nullptr) {
    auto* hist = obs::MetricsRegistry::Global().GetHistogram(latency_hist);
    met::Timer timer;
    for (size_t i = 0; i < ops; ++i) {
      uint64_t t0 = obs::NowNanos();
      fn(i);
      hist->RecordNanos(obs::NowNanos() - t0);
    }
    double s = timer.ElapsedSeconds();
    return s <= 0 ? 0 : static_cast<double>(ops) / s / 1e6;
  }
  met::Timer timer;
  for (size_t i = 0; i < ops; ++i) fn(i);
  double s = timer.ElapsedSeconds();
  return s <= 0 ? 0 : static_cast<double>(ops) / s / 1e6;
}

inline double Mb(size_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// Standard space-accounting report for one built structure: prints total
/// MB and bytes/key plus the top-level component split from the structure's
/// MemoryBreakdown, emits matching JSON rows (one "space" row, one
/// "space.component" row per component), and accumulates the total into the
/// met.mem.logical_index_bytes gauge so RSS can be compared against what the
/// indexes think they use. Returns TotalBytes() for callers that also want
/// the flat number.
inline size_t ReportBreakdown(const char* structure, const MemoryBreakdown& b,
                              size_t num_keys) {
  size_t total = b.TotalBytes();
  double per_key =
      num_keys == 0 ? 0 : static_cast<double>(total) / static_cast<double>(num_keys);
  std::printf("  %-20s %8.2f MB  %6.2f B/key\n", structure, Mb(total), per_key);
  Row({{"kind", "space"},
       {"structure", structure},
       {"bytes", total},
       {"bytes_per_key", per_key}});
  for (const auto& c : b.children()) {
    std::printf("    %-20s %8.2f MB  %5.1f%%\n", c.name().c_str(),
                Mb(c.TotalBytes()),
                total == 0 ? 0.0
                           : 100.0 * static_cast<double>(c.TotalBytes()) /
                                 static_cast<double>(total));
    Row({{"kind", "space.component"},
         {"structure", structure},
         {"component", c.name()},
         {"bytes", c.TotalBytes()}});
  }
  prof::AddLogicalIndexBytes(static_cast<int64_t>(total));
  return total;
}

/// Appends per-op hardware-counter fields from a stopped PerfScope reading
/// to `fields` (for a Reporter row). With no counters available (containers,
/// MET_NO_PERF) appends perf_available=0 only, so JSON consumers can tell
/// "zero misses" from "not measured".
inline void AppendPerfFields(const prof::PerfReading& r, size_t ops,
                             std::vector<Reporter::Field>* fields) {
  if (!r.any() || ops == 0) {
    fields->push_back({"perf_available", 0});
    return;
  }
  double n = static_cast<double>(ops);
  fields->push_back({"perf_available", 1});
  using E = prof::PerfReading;
  if (r.has(E::kCycles))
    fields->push_back({"cycles_per_op", static_cast<double>(r.cycles) / n});
  if (r.has(E::kInstructions))
    fields->push_back({"instr_per_op", static_cast<double>(r.instructions) / n});
  if (r.has(E::kCycles) && r.has(E::kInstructions) && r.cycles > 0)
    fields->push_back({"ipc", static_cast<double>(r.instructions) /
                                  static_cast<double>(r.cycles)});
  if (r.has(E::kLlcMisses))
    fields->push_back({"llc_miss_per_op", static_cast<double>(r.llc_misses) / n});
  if (r.has(E::kDtlbMisses))
    fields->push_back(
        {"dtlb_miss_per_op", static_cast<double>(r.dtlb_misses) / n});
  if (r.has(E::kBranchMisses))
    fields->push_back(
        {"branch_miss_per_op", static_cast<double>(r.branch_misses) / n});
}

/// Shared main() scaffolding for the figure benches that sweep the standard
/// two datasets: `base_keys * MET_SCALE` sorted-unique random 64-bit integer
/// keys (as 8-byte big-endian strings) and half that many sorted-unique
/// synthetic emails. Consumes the Reporter's `--json` flag, prints the
/// section title, runs `header()` once for the column line (pass a no-op
/// lambda if the bench has none), invokes `run(name, keys)` per dataset, and
/// closes with `note`. Hoisted here because a dozen bench_fig*.cc mains were
/// byte-identical copies of this sequence.
template <typename HeaderFn, typename RunFn>
void RunStandardBench(int* argc, char** argv, const char* title,
                      HeaderFn&& header, RunFn&& run, const char* note,
                      size_t base_keys = 1000000) {
  if (argc != nullptr) Reporter::Get().ParseArgs(argc, argv);
  Title(title);
  header();
  size_t n = base_keys * Scale();
  {
    auto ints = GenRandomInts(n);
    SortUnique(&ints);
    run("int", ToStringKeys(ints));
  }
  {
    auto emails = GenEmails(n / 2);
    SortUnique(&emails);
    run("email", emails);
  }
  Note(note);
}

}  // namespace met::bench

#endif  // MET_BENCH_BENCH_UTIL_H_
