// Shared helpers for the metperf benchmark binary: seeded generators, the
// key/value encoding the served checks rely on, raw-sample percentiles,
// /proc readers, and a minimal JSON object writer.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread. Unlike the wall clock it does not run
/// while the hypervisor has the virtual CPU descheduled, so CPU-bound
/// single-thread loops timed with it do not slow down when the host steals.
inline uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// SplitMix64 stream: every workload input is drawn from one of these,
/// seeded from --seed plus a fixed per-purpose salt.
class Rng {
 public:
  explicit Rng(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    x_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t x_;
};

inline uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  Rng r(seed * 0x100000001b3ull ^ salt);
  return r.Next();
}

/// Bijective 64-bit mixer (xorshift-multiply rounds with odd constants).
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Served key space: key i (i < 2^32) is Mix64((seed << 32) | i), so keys
// are distinct, uniform over 64 bits, and fixed by the seed. A value
// carries the key index in its high half and a write version (>= 1) in the
// low half, so any value read back names the key it belongs to.
inline uint64_t KeyOf(uint64_t seed, uint32_t i) {
  return Mix64((seed << 32) | i);
}
inline uint64_t ValueOf(uint32_t i, uint32_t version) {
  return (static_cast<uint64_t>(i) << 32) | version;
}
inline uint32_t IndexOfValue(uint64_t v) { return static_cast<uint32_t>(v >> 32); }
inline uint32_t VersionOfValue(uint64_t v) { return static_cast<uint32_t>(v); }

/// Percentile of raw samples by nearest rank (q in [0, 1]); sorts a copy.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (k > 0) --k;
  if (k >= v.size()) k = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// ---- /proc ---------------------------------------------------------------

inline std::string ReadFile(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// utime + stime of a process, in microseconds.
inline double ProcCpuUs(int pid) {
  std::string s = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  size_t p = s.rfind(')');
  if (p == std::string::npos) return 0;
  std::istringstream in(s.substr(p + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime is 14.
  for (int f = 3; f <= 15 && (in >> field); ++f) {
    if (f == 14) utime = std::atof(field.c_str());
    if (f == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK)) * 1e6;
}

/// A "Key: <n>" field from /proc/<pid>/status (kB) or /proc/<pid>/io.
inline double ProcField(int pid, const char* file, const char* key) {
  std::istringstream in(ReadFile("/proc/" + std::to_string(pid) + "/" + file));
  std::string line;
  size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':')
      return std::atof(line.c_str() + len + 1);
  }
  return 0;
}

// ---- JSON output ----------------------------------------------------------

/// Flat JSON object writer: numbers, strings and nested raw JSON.
class JsonOut {
 public:
  JsonOut& Num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return Raw(k, buf);
  }
  JsonOut& Str(const std::string& k, const std::string& v) {
    return Raw(k, "\"" + v + "\"");
  }
  JsonOut& Raw(const std::string& k, const std::string& v) {
    body_ += body_.empty() ? "{" : ",";
    body_ += "\"" + k + "\":" + v;
    return *this;
  }
  std::string Done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

/// Flag lookup: --name value or --name=value.
inline const char* Flag(int argc, char** argv, const char* name,
                        const char* def) {
  size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) return argv[i + 1];
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
      return argv[i] + len + 1;
  }
  return def;
}
inline uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t def) {
  const char* v = Flag(argc, argv, name, nullptr);
  return v == nullptr ? def : std::strtoull(v, nullptr, 10);
}
inline double FlagF64(int argc, char** argv, const char* name, double def) {
  const char* v = Flag(argc, argv, name, nullptr);
  return v == nullptr ? def : std::atof(v);
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
