// met_loadgen — closed- and open-loop load generator for met_server.
//
//   met_loadgen --port P [--host 127.0.0.1] [--conns C] [--seconds S]
//               [--keys N] [--pipeline D]          (closed loop, default)
//               [--rate R]                         (open loop: R total ops/s)
//               [--updates F] [--scans F] [--inserts F] [--scan-len L]
//               [--zipfian] [--multiget W] [--no-preload]
//               [--timeout-ms T] [--deadline-ms D]
//               [--server-shards N] [--json PATH]
//
// One thread drives one connection through one loop. Each thread keeps a
// window of outstanding request ids, each mapped to its intended send time.
// Closed loop: the window is --pipeline deep and the intended time is the
// send time. Open loop: arrivals are scheduled every conns/R seconds and
// the window is capped at kOpenWindow requests, so a sender ahead of a
// stalled server falls behind schedule instead of deadlocking against it.
// Latency is measured from the intended send time, so coordinated omission
// cannot hide a server stall: everything queued behind it shows in the
// tail. Shed (kShed) and deadline refusals are counted apart from service.
//
// --timeout-ms bounds how long an op may stay outstanding: an older op is
// written off (counted as expired), and an answer that arrives
// for it later is counted as late. --deadline-ms attaches a server-side
// deadline to every request. Nothing is retried; a dead connection fails
// the run.
//
// The op mix comes from the YCSB request stream (src/ycsb/workload.h):
// reads map to GET (optionally grouped into MULTIGET), updates/inserts to
// PUT, scans to SCAN. --json emits a met.bench.v1 document with one
// "serve loadgen" row; CI asserts on it and diffs it, warn-only, against
// bench/baselines/loadgen.json with tools/bench_diff.

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "flags.h"
#include "obs/histogram.h"
#include "serve/client.h"
#include "ycsb/workload.h"

namespace {

using met::serve::Client;
using met::serve::OpCode;
using met::serve::RespStatus;
using met::serve::Response;
using met::tools::FlagBool;
using met::tools::FlagDouble;
using met::tools::FlagStr;
using met::tools::FlagU64;

// Open loop: most requests one connection may have outstanding. Past it
// the sender falls behind schedule rather than deadlocking (an unbounded
// send against a server that paused reads, because its response backlog to
// this client crossed the high-water mark, would wedge both sides).
constexpr size_t kOpenWindow = 1024;
// After the run, outstanding ops get the longer of this and --timeout-ms to
// be answered; whatever is left then counts as expired.
constexpr uint64_t kMinDrainNs = 2ull * 1000 * 1000 * 1000;

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 7777;
  size_t conns = 4;
  size_t pipeline = 32;
  double seconds = 5.0;
  size_t keys = 100000;
  double rate = 0.0;  // total intended ops/sec across all conns; 0 = closed
  double updates = 0.0;
  double scans = 0.0;
  double inserts = 0.0;
  size_t scan_len = 16;
  bool zipfian = false;
  size_t multiget = 0;  // group this many reads into one MULTIGET (0 = off)
  bool preload = true;
  size_t server_shards = 1;  // for the qps-per-shard report only
  uint32_t timeout_ms = 1000;  // per-op budget; 0 = no per-op limit
  uint32_t deadline_ms = 0;    // attach this deadline to every request
};

struct ThreadResult {
  met::obs::Histogram latency;
  uint64_t ok = 0;
  uint64_t notfound = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t errors = 0;
  uint64_t sent = 0;
  uint64_t expired = 0;  // ops written off unanswered
  uint64_t late = 0;     // answers for ops already written off
  bool failed = false;
  std::string fail_msg;

  void Count(const Response& resp) {
    switch (resp.status) {
      case RespStatus::kOk: ++ok; break;
      case RespStatus::kNotFound: ++notfound; break;
      case RespStatus::kShed: ++shed; break;
      case RespStatus::kError: ++errors; break;
      case RespStatus::kDeadlineExceeded: ++deadline_exceeded; break;
    }
  }
};

/// One request, as the feeder produces it.
struct OpSpec {
  OpCode op = OpCode::kGet;
  uint64_t key = 0;
  uint64_t value = 0;
  uint32_t scan_limit = 0;
  std::vector<uint64_t> multi_keys;
};

/// Produces the next OpSpec from the YCSB stream.
class RequestFeeder {
 public:
  RequestFeeder(const Config& cfg, uint64_t seed)
      : cfg_(cfg), stream_(cfg.keys, Spec(cfg, seed)) {}

  OpSpec Next() {
    // MULTIGET grouping: reads accumulate; a full group goes out as one
    // frame (one response covers cfg_.multiget keys).
    for (;;) {
      met::YcsbRequest req = stream_.Next();
      OpSpec s;
      switch (req.op) {
        case met::YcsbOp::kRead:
          if (cfg_.multiget > 1) {
            group_.push_back(req.key_index);
            if (group_.size() < cfg_.multiget) continue;
            s.op = OpCode::kMultiGet;
            s.multi_keys = std::move(group_);
            group_.clear();
            return s;
          }
          s.op = OpCode::kGet;
          s.key = req.key_index;
          return s;
        case met::YcsbOp::kUpdate:
        case met::YcsbOp::kInsert:
          s.op = OpCode::kPut;
          s.key = req.key_index;
          s.value = req.key_index + 1;
          return s;
        case met::YcsbOp::kScan:
          s.op = OpCode::kScan;
          s.key = req.key_index;
          s.scan_limit = static_cast<uint32_t>(req.scan_length);
          return s;
      }
    }
  }

 private:
  static met::YcsbSpec Spec(const Config& cfg, uint64_t seed) {
    met::YcsbSpec s;
    // Insert fraction is the remainder after read/update/scan.
    s.read_fraction = 1.0 - cfg.updates - cfg.scans - cfg.inserts;
    s.update_fraction = cfg.updates;
    s.scan_fraction = cfg.scans;
    s.max_scan_length = static_cast<uint16_t>(
        std::min<size_t>(cfg.scan_len, met::serve::kMaxScanLimit));
    s.zipfian = cfg.zipfian;
    s.seed = seed;
    return s;
  }

  const Config& cfg_;
  met::YcsbRequestStream stream_;
  std::vector<uint64_t> group_;
};

uint32_t SendSpec(Client* c, const OpSpec& s) {
  switch (s.op) {
    case OpCode::kGet: return c->SendGet(s.key);
    case OpCode::kPut: return c->SendPut(s.key, s.value);
    case OpCode::kDelete: return c->SendDelete(s.key);
    case OpCode::kScan: return c->SendScan(s.key, s.scan_limit);
    case OpCode::kMultiGet: return c->SendMultiGet(s.multi_keys);
  }
  return 0;  // unreachable
}

bool Preload(const Config& cfg, size_t t, Client* c, std::string* err) {
  size_t per = (cfg.keys + cfg.conns - 1) / cfg.conns;
  size_t lo = t * per;
  size_t hi = std::min(cfg.keys, lo + per);
  std::vector<uint64_t> todo;
  todo.reserve(hi - lo);
  for (size_t k = lo; k < hi; ++k) todo.push_back(k);
  // Preload is setup, not measurement: the per-op deadline only applies to
  // the measured phase.
  c->set_deadline_ms(0);
  // Shed PUTs are retried until the whole keyspace slice is loaded — a
  // small admission budget on the target must thin the measured phase, not
  // silently leave holes that turn every later GET into a notfound.
  std::vector<std::pair<uint32_t, uint64_t>> batch;  // id -> key
  std::vector<uint64_t> shed;
  uint32_t backoff_ms = 0;
  while (!todo.empty()) {
    if (backoff_ms != 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = 0;
    shed.clear();
    for (size_t i = 0; i < todo.size();) {
      batch.clear();
      for (; i < todo.size() && batch.size() < 128; ++i)
        batch.emplace_back(c->SendPut(todo[i], todo[i] + 1), todo[i]);
      if (met::io::Status st = c->Flush(); !st.ok()) {
        *err = st.ToString();
        return false;
      }
      for (const auto& [id, key] : batch) {
        Response resp;
        if (met::io::Status st = c->RecvFor(id, &resp); !st.ok()) {
          *err = st.ToString();
          return false;
        }
        if (resp.status == RespStatus::kShed) {
          shed.push_back(key);
          backoff_ms = std::max(backoff_ms,
                                resp.retry_after_ms != 0 ? resp.retry_after_ms
                                                         : 1u);
        } else if (resp.status != RespStatus::kOk) {
          *err = "preload put failed with status " +
                 std::to_string(static_cast<int>(resp.status));
          return false;
        }
      }
    }
    todo.swap(shed);
  }
  c->set_deadline_ms(cfg.deadline_ms);
  return true;
}

void Run(const Config& cfg, size_t t, ThreadResult* out) {
  auto fail = [&](const std::string& msg) {
    out->failed = true;
    out->fail_msg = msg;
  };
  Client c;
  c.set_deadline_ms(cfg.deadline_ms);
  if (met::io::Status st = c.Connect(cfg.host, cfg.port); !st.ok())
    return fail(st.ToString());
  std::string err;
  if (cfg.preload && !Preload(cfg, t, &c, &err))
    return fail("preload: " + err);
  const bool open = cfg.rate > 0.0;
  const size_t window = open ? kOpenWindow : cfg.pipeline;
  const uint64_t interval =
      open ? static_cast<uint64_t>(1e9 * static_cast<double>(cfg.conns) /
                                   cfg.rate)
           : 0;
  const uint64_t timeout_ns = uint64_t{cfg.timeout_ms} * 1000000;
  const uint64_t end = static_cast<uint64_t>(cfg.seconds * 1e9);
  const uint64_t drain_end = end + std::max(timeout_ns, kMinDrainNs);
  RequestFeeder feeder(cfg, (open ? 0x09E41 : 0x10aD6E) + t * 977);
  // Request id -> intended send time. Ids and intended times both grow, so
  // the oldest outstanding op is the first entry.
  std::map<uint32_t, uint64_t> intended;
  uint64_t next_arrival = 0;
  met::Timer clock;
  for (;;) {
    uint64_t now = clock.ElapsedNanos();
    if (now >= end && (intended.empty() || now >= drain_end)) break;
    bool sent = false;
    while (now < end && intended.size() < window && next_arrival <= now) {
      intended.emplace(SendSpec(&c, feeder.Next()),
                       open ? next_arrival : clock.ElapsedNanos());
      next_arrival += interval;
      ++out->sent;
      sent = true;
    }
    if (sent) {
      if (met::io::Status st = c.Flush(); !st.ok())
        return fail("send: " + st.ToString());
    }

    // Wait for a readable socket or the next thing due: an arrival, the
    // oldest op's timeout, or the end of the run or of the drain.
    uint64_t due = now < end ? end : drain_end;
    if (open && now < end && intended.size() < window)
      due = std::min(due, next_arrival);
    if (timeout_ns != 0 && !intended.empty())
      due = std::min(due, intended.begin()->second + timeout_ns);
    const uint64_t wait_ns = due > now ? due - now : 0;
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    pollfd p{c.fd(), POLLIN, 0};
    int ready = ppoll(&p, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) return fail("ppoll failed");
    if (ready > 0) {
      if (met::io::Status st = c.Fill(); !st.ok())
        return fail("connection lost: " + st.ToString());
      now = clock.ElapsedNanos();
      for (;;) {
        Response resp;
        bool have = false;
        if (met::io::Status st = c.TryRecv(&resp, &have); !st.ok())
          return fail("bad response: " + st.ToString());
        if (!have) break;
        auto it = intended.find(resp.id);
        if (it == intended.end()) {
          ++out->late;
          continue;
        }
        if (resp.status == RespStatus::kOk ||
            resp.status == RespStatus::kNotFound)
          out->latency.RecordNanos(now - it->second);
        out->Count(resp);
        intended.erase(it);
      }
    }
    now = clock.ElapsedNanos();
    while (timeout_ns != 0 && !intended.empty() &&
           now - intended.begin()->second >= timeout_ns) {
      intended.erase(intended.begin());
      ++out->expired;
    }
  }
  out->expired += intended.size();  // still unanswered when the drain ended
}

}  // namespace

int main(int argc, char** argv) {
  met::bench::Reporter& reporter = met::bench::Reporter::Get();
  reporter.ParseArgs(&argc, argv);

  Config cfg;
  cfg.host = FlagStr(argc, argv, "--host", "127.0.0.1");
  cfg.port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 7777));
  cfg.conns = std::max<uint64_t>(1, FlagU64(argc, argv, "--conns", 4));
  cfg.pipeline = std::max<uint64_t>(1, FlagU64(argc, argv, "--pipeline", 32));
  cfg.seconds = FlagDouble(argc, argv, "--seconds", 5.0);
  cfg.keys = std::max<uint64_t>(1, FlagU64(argc, argv, "--keys", 100000));
  cfg.rate = FlagDouble(argc, argv, "--rate", 0.0);
  cfg.updates = FlagDouble(argc, argv, "--updates", 0.0);
  cfg.scans = FlagDouble(argc, argv, "--scans", 0.0);
  cfg.inserts = FlagDouble(argc, argv, "--inserts", 0.0);
  cfg.scan_len = FlagU64(argc, argv, "--scan-len", 16);
  cfg.zipfian = FlagBool(argc, argv, "--zipfian");
  cfg.multiget = FlagU64(argc, argv, "--multiget", 0);
  cfg.preload = !FlagBool(argc, argv, "--no-preload");
  cfg.server_shards =
      std::max<uint64_t>(1, FlagU64(argc, argv, "--server-shards", 1));
  cfg.timeout_ms =
      static_cast<uint32_t>(FlagU64(argc, argv, "--timeout-ms", 1000));
  cfg.deadline_ms =
      static_cast<uint32_t>(FlagU64(argc, argv, "--deadline-ms", 0));

  const bool open_loop = cfg.rate > 0.0;
  std::vector<ThreadResult> results(cfg.conns);
  std::vector<std::thread> threads;
  threads.reserve(cfg.conns);
  met::Timer wall;
  for (size_t t = 0; t < cfg.conns; ++t)
    threads.emplace_back(Run, std::cref(cfg), t, &results[t]);
  for (auto& th : threads) th.join();
  double elapsed = wall.ElapsedSeconds();

  met::obs::Histogram latency;
  uint64_t ok = 0, notfound = 0, shed = 0, errors = 0, sent = 0;
  uint64_t deadline_exceeded = 0, expired = 0, late = 0;
  for (ThreadResult& r : results) {
    if (r.failed) {
      std::fprintf(stderr, "met_loadgen: connection failed: %s\n",
                   r.fail_msg.c_str());
      return 1;
    }
    latency.Merge(r.latency);
    ok += r.ok;
    notfound += r.notfound;
    shed += r.shed;
    errors += r.errors;
    sent += r.sent;
    deadline_exceeded += r.deadline_exceeded;
    expired += r.expired;
    late += r.late;
  }
  const uint64_t serviced = ok + notfound;
  const double qps = elapsed > 0 ? static_cast<double>(serviced) / elapsed : 0;
  const uint64_t p50 = latency.Quantile(0.50);
  const uint64_t p99 = latency.Quantile(0.99);
  const uint64_t p999 = latency.Quantile(0.999);

  const char* mode = open_loop ? "open" : "closed";
  std::printf(
      "met_loadgen mode=%s conns=%zu pipeline=%zu rate=%.0f seconds=%.2f\n"
      "  sent=%llu serviced=%llu (ok=%llu notfound=%llu) shed=%llu "
      "deadline=%llu errors=%llu\n"
      "  expired=%llu late=%llu\n"
      "  qps=%.0f qps/shard=%.0f p50=%lluns p99=%lluns p999=%lluns\n",
      mode, cfg.conns, cfg.pipeline, cfg.rate, elapsed,
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(serviced),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(notfound),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(late), qps,
      qps / static_cast<double>(cfg.server_shards),
      static_cast<unsigned long long>(p50),
      static_cast<unsigned long long>(p99),
      static_cast<unsigned long long>(p999));

  reporter.Section("serve loadgen");
  reporter.Row({{"mode", mode},
                {"conns", cfg.conns},
                {"pipeline", cfg.pipeline},
                {"rate_target", cfg.rate},
                {"seconds", elapsed},
                {"qps", qps},
                {"qps_per_shard", qps / static_cast<double>(cfg.server_shards)},
                {"p50_ns", static_cast<size_t>(p50)},
                {"p99_ns", static_cast<size_t>(p99)},
                {"p999_ns", static_cast<size_t>(p999)},
                {"ok", static_cast<size_t>(ok)},
                {"notfound", static_cast<size_t>(notfound)},
                {"shed", static_cast<size_t>(shed)},
                {"deadline_exceeded", static_cast<size_t>(deadline_exceeded)},
                {"errors", static_cast<size_t>(errors)},
                {"expired", static_cast<size_t>(expired)},
                {"late", static_cast<size_t>(late)}});
  reporter.WriteIfEnabled();
  return errors == 0 ? 0 : 2;
}
