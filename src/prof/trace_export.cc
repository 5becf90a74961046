#include "prof/trace_export.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "obs/obs.h"

namespace met::prof {

void ChromeTraceJson(std::string* out) {
  auto spans = obs::TraceLog::Global().Snapshot();
  out->append("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  char buf[160];
  for (const auto& s : spans) {
    if (s.name == nullptr) continue;
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"name\":\"");
    obs::MetricsRegistry::AppendJsonEscaped(out, s.name);
    // trace_event timestamps are microseconds (doubles); sub-microsecond
    // durations keep their fraction.
    double ts_us = static_cast<double>(s.start_nanos) / 1e3;
    double dur_us = static_cast<double>(s.duration_nanos) / 1e3;
    if (s.duration_nanos == 0) {
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,"
                    "\"tid\":%u}",
                    ts_us, s.tid);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                    "\"tid\":%u}",
                    ts_us, dur_us, s.tid);
    }
    out->append(buf);
  }
  out->append("]}\n");
}

bool WriteChromeTrace(const std::string& path) {
  std::string json;
  ChromeTraceJson(&json);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "prof: cannot write trace to %s\n", path.c_str());
    return false;
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

const std::string& TraceOutPath() {
  static const std::string path = [] {
    const char* v = std::getenv("MET_TRACE_OUT");
    return std::string(v == nullptr ? "" : v);
  }();
  return path;
}

void InstallTraceExporter() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (TraceOutPath().empty()) return;
    size_t cap = 1u << 16;
    if (const char* c = std::getenv("MET_TRACE_CAP"); c != nullptr) {
      long v = std::atol(c);
      if (v > 0) cap = static_cast<size_t>(v);
    }
    obs::TraceLog::Global().SetCapacity(cap);
    std::atexit([] { WriteChromeTrace(TraceOutPath()); });
  });
}

}  // namespace met::prof
