// NetFaultSpec parsing and the global injector. Mirrors io/fault_env.cc so
// the two fault grammars stay recognisably the same dialect.

#include "guard/net_fault.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "guard/metrics.h"

namespace met::guard {

// ---------------------------------------------------------------------------
// NetFaultSpec
// ---------------------------------------------------------------------------

namespace {

bool ParseU64(std::string_view v, uint64_t* out) {
  if (v.empty()) return false;
  std::string buf(v);
  char* end = nullptr;
  errno = 0;
  unsigned long long x = std::strtoull(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = x;
  return true;
}

bool ParseProb(std::string_view v, double* out) {
  if (v.empty()) return false;
  std::string buf(v);
  char* end = nullptr;
  errno = 0;
  double x = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  if (x < 0.0 || x > 1.0) return false;
  *out = x;
  return true;
}

void AppendProb(std::string* out, const char* key, double v) {
  if (v <= 0) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%s=%g", out->empty() ? "" : ",", key, v);
  out->append(buf);
}

}  // namespace

io::Status NetFaultSpec::Parse(std::string_view spec, NetFaultSpec* out) {
  *out = NetFaultSpec();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string_view pair = spec.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() : comma + 1;
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return io::Status::InvalidArgument("net fault spec pair missing '=': " +
                                         std::string(pair));
    }
    std::string_view key = pair.substr(0, eq);
    std::string_view value = pair.substr(eq + 1);
    bool ok;
    if (key == "seed") {
      ok = ParseU64(value, &out->seed);
    } else if (key == "stall_ms") {
      ok = ParseU64(value, &out->stall_ms);
    } else if (key == "torn") {
      ok = ParseProb(value, &out->torn);
    } else if (key == "rst") {
      ok = ParseProb(value, &out->rst);
    } else if (key == "stall") {
      ok = ParseProb(value, &out->stall);
    } else if (key == "short") {
      ok = ParseProb(value, &out->short_read);
    } else if (key == "dup") {
      ok = ParseProb(value, &out->dup);
    } else {
      return io::Status::InvalidArgument("unknown net fault spec key: " +
                                         std::string(key));
    }
    if (!ok) {
      return io::Status::InvalidArgument("bad net fault spec value for '" +
                                         std::string(key) +
                                         "': " + std::string(value));
    }
  }
  return io::Status::OK();
}

NetFaultSpec NetFaultSpec::FromEnv() {
  const char* v = std::getenv("MET_NET_FAULT");
  if (v == nullptr || v[0] == '\0') return NetFaultSpec();
  NetFaultSpec spec;
  io::Status s = Parse(v, &spec);
  if (!s.ok()) {
    std::fprintf(stderr, "fatal: bad MET_NET_FAULT: %s\n",
                 s.ToString().c_str());
    std::abort();
  }
  return spec;
}

std::string NetFaultSpec::ToString() const {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seed=%llu",
                static_cast<unsigned long long>(seed));
  out.append(buf);
  AppendProb(&out, "torn", torn);
  AppendProb(&out, "rst", rst);
  AppendProb(&out, "stall", stall);
  if (stall > 0) {
    std::snprintf(buf, sizeof(buf), ",stall_ms=%llu",
                  static_cast<unsigned long long>(stall_ms));
    out.append(buf);
  }
  AppendProb(&out, "short", short_read);
  AppendProb(&out, "dup", dup);
  return out;
}

// ---------------------------------------------------------------------------
// NetFaultInjector
// ---------------------------------------------------------------------------

NetFaultInjector& NetFaultInjector::Global() {
  static NetFaultInjector* inj = [] {
    auto* g = new NetFaultInjector();  // intentionally leaked, like registries
    g->Configure(NetFaultSpec::FromEnv());
    return g;
  }();
  return *inj;
}

void NetFaultInjector::Configure(const NetFaultSpec& spec) {
  sync::MutexLock l(mu_);
  spec_ = spec;
  rng_ = Random(spec.seed);
  counts_ = NetFaultCounts();
  enabled_.store(spec.enabled(), std::memory_order_relaxed);
}

NetFaultInjector::WriteFault NetFaultInjector::RollWrite(size_t n,
                                                         size_t* clamp) {
  *clamp = n;
  if (!enabled()) return WriteFault::kNone;
  sync::MutexLock l(mu_);
  if (n > 1 && Roll(spec_.torn)) {
    ++counts_.torn;
    GuardObsMetrics::Get().net_faults->Increment();
    *clamp = 1 + static_cast<size_t>(rng_.Uniform(n - 1));
    return WriteFault::kTorn;
  }
  if (Roll(spec_.rst)) {
    ++counts_.rst;
    GuardObsMetrics::Get().net_faults->Increment();
    *clamp = 0;
    return WriteFault::kReset;
  }
  return WriteFault::kNone;
}

uint64_t NetFaultInjector::RollStallNs() {
  if (!enabled()) return 0;
  sync::MutexLock l(mu_);
  if (!Roll(spec_.stall)) return 0;
  ++counts_.stall;
  GuardObsMetrics::Get().net_faults->Increment();
  return spec_.stall_ms * 1000000;
}

size_t NetFaultInjector::ClampRead(size_t want) {
  if (!enabled() || want <= 1) return want;
  sync::MutexLock l(mu_);
  if (!Roll(spec_.short_read)) return want;
  ++counts_.short_read;
  GuardObsMetrics::Get().net_faults->Increment();
  // Tiny reads (1..16 bytes) maximise partial-frame decoder coverage.
  size_t cap = want < 16 ? want : 16;
  return 1 + static_cast<size_t>(rng_.Uniform(cap));
}

bool NetFaultInjector::RollDuplicate() {
  if (!enabled()) return false;
  sync::MutexLock l(mu_);
  if (!Roll(spec_.dup)) return false;
  ++counts_.dup;
  GuardObsMetrics::Get().net_faults->Increment();
  return true;
}

NetFaultCounts NetFaultInjector::Counts() const {
  sync::MutexLock l(mu_);
  return counts_;
}

NetFaultSpec NetFaultInjector::Spec() const {
  sync::MutexLock l(mu_);
  return spec_;
}

}  // namespace met::guard
