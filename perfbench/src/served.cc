// `metperf serve-load`: the served workloads' load generator and output
// checker, built on the public serve::Client.
//
// Phases, each issuing a fixed, seeded number of operations (time is the
// output, so the flushes, compactions and merges inside a phase are the
// same on every run of the same code and seed):
//   preload  every key written once (version 1), closed loop, depth 512;
//   fill     (--fill N) the first N keys written again, likewise: sizes the
//            set-up so that the durable engine's next compaction falls
//            inside the closed phase;
//   closed   capacity: kThreads connections, pipeline kPipeline, in
//            `--rounds` rounds; a round's throughput is its completed ops
//            over its own wall time;
//   open     latency, in rounds too: each connection sends at
//            rate/kThreads from a fixed schedule; latency runs from each
//            request's intended send time, so a stalled server inflates
//            every request behind it;
//   restart  (--restart-sample N) run.py restarts the server between
//            steps: a clean restart, a batch of acked writes, a kill -9,
//            then every written key plus a seeded sample is read back.
// The server's RSS is read after every closed and open round, when nothing
// is in flight. Before and after the closed phase the generator pauses
// ("PAUSE closed-begin"/"PAUSE closed-end", answered with "GO") so run.py
// can list the data directory's tables with nothing in flight.
//
// Generator thread t owns the keys with index % kThreads == t, so it knows
// the exact version each of its GETs must see: the server executes one
// connection's requests to a key in send order. Every response is checked;
// a wrong value or an unordered SCAN is a check failure (the run fails),
// while shed, errored or timed-out requests are counted as failed ops.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>

#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/client.h"

namespace perfbench {
namespace {

using met::serve::Client;
using met::serve::RespStatus;
using met::serve::Response;

enum OpType : uint8_t { kGet = 0, kPut = 1, kDel = 2, kScan = 3, kNumOps = 4 };
const char* const kOpNames[kNumOps] = {"get", "put", "delete", "scan"};

struct Mix {
  double w[kNumOps];
  uint32_t scan_len;
};

struct Config {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int server_pid = 0;
  uint64_t seed = 1;
  uint32_t keys = 0;
  uint64_t fill = 0;
  uint64_t closed_ops = 0;
  uint64_t open_ops = 0;
  double rate = 0;
  Mix mix{};
  bool trace = false;
  uint32_t restart_sample = 0;
  bool inject_wrong = false;  // checker self-test: one GET expects wrongly
  std::string trace_out;
};

/// One outstanding request: what was sent and what the answer must be.
struct Pending {
  uint8_t op = 0;
  uint8_t live = 0;
  uint32_t idx = 0;
  uint32_t expect = 0;  // GET: version the value must carry (0 = absent)
  uint64_t start = 0;   // SCAN start key
  uint64_t intended_ns = 0;
  uint64_t send_ns = 0;
};

/// One client span (traced runs): op, intended send, send, receive.
struct Span {
  uint8_t op;
  uint64_t intended_ns, send_ns, recv_ns;
};

struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;
  uint64_t ops[kNumOps] = {};
  uint64_t scan_rows = 0;
  uint64_t start_ns = 0, end_ns = 0;
  std::vector<double> lat_us[kNumOps];  // open loop only
  std::vector<double> late_us;          // open loop: send - intended
  std::vector<Span> spans;              // traced runs only
  std::string first_error;

  void Merge(PhaseStats&& o) {
    attempted += o.attempted;
    failed += o.failed;
    check_failures += o.check_failures;
    scan_rows += o.scan_rows;
    for (int i = 0; i < kNumOps; ++i) {
      ops[i] += o.ops[i];
      lat_us[i].insert(lat_us[i].end(), o.lat_us[i].begin(), o.lat_us[i].end());
    }
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    if (first_error.empty()) first_error = o.first_error;
    start_ns = start_ns == 0 ? o.start_ns : std::min(start_ns, o.start_ns);
    end_ns = std::max(end_ns, o.end_ns);
  }
};

constexpr uint32_t kThreads = 2;     // generator threads = connections
constexpr uint32_t kPipeline = 16;   // closed loop: requests in flight each
constexpr size_t kRing = 1u << 16;  // outstanding-request slots per thread
constexpr uint64_t kStallNs = 10ull * 1000 * 1000 * 1000;
// Preload pipeline depth: deep enough that durable group commits cover
// hundreds of writes, within the server's default admission budget.
constexpr size_t kPreloadDepth = 512;

/// Per-thread generator: one connection, one slice of the key space.
class Worker {
 public:
  Worker(const Config& cfg, uint32_t t, std::vector<uint32_t>* ver,
         std::vector<uint8_t>* uncertain)
      : cfg_(cfg), t_(t), ver_(*ver), uncertain_(*uncertain),
        ring_(kRing), inject_pending_(cfg.inject_wrong && t == 0) {
    owned_ = (cfg.keys - t + kThreads - 1) / kThreads;
  }

  bool Connect(uint16_t port) {
    client_ = std::make_unique<Client>();
    return client_->Connect(cfg_.host, port).ok();
  }

  /// Writes the next version of the first `n` owned keys (all of them
  /// when `n` is larger).
  void WriteFirst(PhaseStats* st, uint64_t n) {
    uint32_t next = 0;
    Run(st, std::min<uint64_t>(n, owned_), kPreloadDepth, /*open=*/false,
        false, [&](Pending* p) {
          p->op = kPut;
          p->idx = t_ + kThreads * next++;
        });
  }

  /// A fixed-count, seeded op stream; open loop when `open`.
  void Mixed(PhaseStats* st, uint64_t n, bool open, bool traced,
             uint64_t salt) {
    Rng rng(StreamSeed(cfg_.seed, salt * 64 + t_));
    Run(st, n, open ? kRing / 2 : kPipeline, open, traced, [&](Pending* p) {
      double u = rng.Unit();
      uint8_t op = kGet;
      for (double acc = 0; op < kNumOps; ++op) {
        acc += cfg_.mix.w[op];
        if (u < acc) break;
      }
      if (op >= kNumOps) op = kGet;
      p->op = op;
      p->idx = t_ + kThreads * static_cast<uint32_t>(rng.Below(owned_));
      if (op == kScan) p->start = rng.Next();
    });
  }

  /// Writes (PUT, or DELETE every 20th) each index in `idx` this worker
  /// owns, closed loop, so every write is acked before returning.
  void WriteSet(PhaseStats* st, const std::vector<uint32_t>& idx) {
    size_t pos = 0, k = 0;
    std::vector<uint32_t> mine;
    for (uint32_t i : idx)
      if (i % kThreads == t_) mine.push_back(i);
    Run(st, mine.size(), 64, false, false, [&](Pending* p) {
      p->op = (k++ % 20 == 19) ? kDel : kPut;
      p->idx = mine[pos++];
    });
  }

  /// Reads back each owned index in `idx`; any mismatch is a check failure.
  void ReadSet(PhaseStats* st, const std::vector<uint32_t>& idx) {
    size_t pos = 0;
    std::vector<uint32_t> mine;
    for (uint32_t i : idx)
      if (i % kThreads == t_) mine.push_back(i);
    Run(st, mine.size(), 64, false, false, [&](Pending* p) {
      p->op = kGet;
      p->idx = mine[pos++];
    });
  }

 private:
  template <typename NextOp>
  void Run(PhaseStats* st, uint64_t n, size_t depth, bool open, bool traced,
           NextOp&& next_op) {
    Client& c = *client_;
    uint64_t sent = 0, done = 0, inflight = 0;
    const uint64_t interval_ns =
        open ? static_cast<uint64_t>(1e9 * kThreads / cfg_.rate) : 0;
    if (traced) st->spans.reserve(n);
    if (open) {
      for (auto& v : st->lat_us) v.reserve(n);
      st->late_us.reserve(n);
    }
    uint64_t t0 = NowNs();
    // Stagger the threads' schedules so arrivals interleave evenly.
    uint64_t open_base = t0 + interval_ns * t_ / kThreads;
    st->start_ns = t0;
    uint64_t last_progress = t0;
    pollfd pfd{c.fd(), POLLIN, 0};
    while (done < n) {
      uint64_t now = NowNs();
      bool queued = false;
      while (sent < n && inflight < depth) {
        uint64_t intended = open ? open_base + sent * interval_ns : 0;
        if (open && intended > now) break;
        Pending p;
        next_op(&p);
        p.live = 1;
        p.intended_ns = open ? intended : now;
        uint32_t id = Send(&p);
        p.send_ns = NowNs();
        Pending& slot = ring_[id % kRing];
        if (slot.live) {
          Fail(st, "outstanding-request ring overflow");
          st->end_ns = NowNs();
          return;
        }
        slot = p;
        ++sent;
        ++inflight;
        ++st->attempted;
        queued = true;
      }
      if (queued && !c.Flush().ok()) {
        Fail(st, "send failed");
        break;
      }
      // Block until a response arrives or the next send is due: a
      // spinning generator would burn the CPU time the host steals back.
      uint64_t wait_ns = 100ull * 1000 * 1000;
      if (open && sent < n) {
        uint64_t due = open_base + sent * interval_ns, t = NowNs();
        wait_ns = due > t ? due - t : 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1000000000ull),
                  static_cast<long>(wait_ns % 1000000000ull)};
      if (ppoll(&pfd, 1, &ts, nullptr) <= 0) {
        if (now - last_progress > kStallNs) {
          Fail(st, "no response for 10 s");
          break;
        }
        continue;
      }
      if (!c.Fill().ok()) {
        Fail(st, "connection lost");
        break;
      }
      uint64_t recv_ns = NowNs();
      for (;;) {
        Response r;
        bool have = false;
        if (!c.TryRecv(&r, &have).ok()) {
          Fail(st, "malformed response");
          done = n;
          break;
        }
        if (!have) break;
        Pending& p = ring_[r.id % kRing];
        Check(st, p, r);
        if (open) {
          st->lat_us[p.op].push_back((recv_ns - p.intended_ns) / 1e3);
          st->late_us.push_back((p.send_ns - p.intended_ns) / 1e3);
        }
        if (traced)
          st->spans.push_back({p.op, p.intended_ns, p.send_ns, recv_ns});
        p.live = 0;
        --inflight;
        ++done;
        last_progress = recv_ns;
      }
    }
    // Whatever never got an answer counts as failed.
    if (done < n) st->failed += sent - done;
    st->end_ns = NowNs();
  }

  uint32_t Send(Pending* p) {
    Client& c = *client_;
    switch (p->op) {
      case kGet:
        p->expect = ver_[p->idx];
        if (inject_pending_ && p->expect != 0) {
          ++p->expect;
          inject_pending_ = false;
        }
        return c.SendGet(KeyOf(cfg_.seed, p->idx));
      case kPut:
        // Version advances at send time: the server applies this
        // connection's writes to a key in send order.
        p->expect = ++ver_[p->idx];
        return c.SendPut(KeyOf(cfg_.seed, p->idx), ValueOf(p->idx, p->expect));
      case kDel:
        p->expect = ver_[p->idx];  // 0: already deleted, expect not-found
        ver_[p->idx] = 0;
        return c.SendDelete(KeyOf(cfg_.seed, p->idx));
      default:
        return c.SendScan(p->start, cfg_.mix.scan_len);
    }
  }

  void Check(PhaseStats* st, const Pending& p, const Response& r) {
    ++st->ops[p.op];
    if (r.status == RespStatus::kShed || r.status == RespStatus::kError ||
        r.status == RespStatus::kDeadlineExceeded) {
      ++st->failed;
      // A write that failed leaves its key's state unknown to the oracle.
      if (p.op == kPut || p.op == kDel) uncertain_[p.idx] = 1;
      return;
    }
    bool ok = true;
    switch (p.op) {
      case kGet:
        if (uncertain_[p.idx]) {
          ok = r.status == RespStatus::kNotFound ||
               IndexOfValue(r.value) == p.idx;
        } else if (p.expect == 0) {
          ok = r.status == RespStatus::kNotFound;
        } else {
          ok = r.status == RespStatus::kOk &&
               r.value == ValueOf(p.idx, p.expect);
        }
        break;
      case kPut:
        ok = r.status == RespStatus::kOk;
        break;
      case kDel:
        ok = uncertain_[p.idx] ||
             r.status == (p.expect != 0 ? RespStatus::kOk
                                        : RespStatus::kNotFound);
        break;
      case kScan: {
        ok = r.status == RespStatus::kOk &&
             r.scan_values.size() <= cfg_.mix.scan_len;
        uint64_t prev = p.start;
        bool first = true;
        for (uint64_t v : r.scan_values) {
          uint32_t i = IndexOfValue(v);
          uint64_t k = KeyOf(cfg_.seed, i);
          if (i >= cfg_.keys || VersionOfValue(v) == 0 || k < prev ||
              (!first && k == prev))
            ok = false;
          prev = k;
          first = false;
        }
        st->scan_rows += r.scan_values.size();
        break;
      }
    }
    if (!ok) {
      ++st->check_failures;
      if (st->first_error.empty())
        st->first_error = std::string("wrong ") + kOpNames[p.op] +
                          " result for key index " + std::to_string(p.idx);
    }
  }

  void Fail(PhaseStats* st, const char* why) {
    if (st->first_error.empty()) st->first_error = why;
  }

  const Config& cfg_;
  uint32_t t_;
  uint32_t owned_ = 0;
  std::vector<uint32_t>& ver_;
  std::vector<uint8_t>& uncertain_;
  std::vector<Pending> ring_;
  bool inject_pending_;
  std::unique_ptr<Client> client_;
};

/// Pins the calling thread to the `k`-th CPU of the process's affinity set.
void PinToKth(uint32_t k) {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  int cpus[CPU_SETSIZE];
  int n = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus[n++] = c;
  if (n == 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % n], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// Runs `body(worker, stats)` on every worker thread and merges the stats.
template <typename Body>
PhaseStats Parallel(std::vector<std::unique_ptr<Worker>>& workers,
                    Body&& body) {
  std::vector<PhaseStats> per(workers.size());
  std::vector<std::thread> th;
  std::atomic<uint32_t> ready{0};
  for (uint32_t t = 0; t < workers.size(); ++t) {
    th.emplace_back([&, t] {
      PinToKth(t);
      // Start together, so the phase's wall time is the slowest thread's.
      ready.fetch_add(1);
      while (ready.load() < workers.size()) {
      }
      body(*workers[t], &per[t]);
    });
  }
  for (auto& x : th) x.join();
  PhaseStats all;
  for (auto& p : per) all.Merge(std::move(p));
  return all;
}

JsonOut PhaseJson(const PhaseStats& st, double cpu_us) {
  JsonOut j;
  double secs = (st.end_ns - st.start_ns) / 1e9;
  uint64_t completed = st.attempted - st.failed;
  j.Num("ops", static_cast<double>(st.attempted))
      .Num("completed", static_cast<double>(completed))
      .Num("failed", static_cast<double>(st.failed))
      .Num("check_failures", static_cast<double>(st.check_failures))
      .Num("seconds", secs)
      .Num("throughput_ops", secs > 0 ? completed / secs : 0)
      .Num("server_cpu_us", cpu_us)
      .Num("scan_rows", static_cast<double>(st.scan_rows));
  for (int op = 0; op < kNumOps; ++op) {
    j.Num(std::string(kOpNames[op]) + "_count", static_cast<double>(st.ops[op]));
    if (!st.lat_us[op].empty()) {
      j.Num(std::string(kOpNames[op]) + "_p50_us", Percentile(st.lat_us[op], 0.5));
      j.Num(std::string(kOpNames[op]) + "_p99_us", Percentile(st.lat_us[op], 0.99));
    }
  }
  if (!st.late_us.empty()) j.Num("late_p99_us", Percentile(st.late_us, 0.99));
  if (!st.first_error.empty()) j.Str("first_error", st.first_error);
  return j;
}

void WriteSpans(const std::string& path, const char* phase,
                const PhaseStats& st, bool append) {
  FILE* f = std::fopen(path.c_str(), append ? "a" : "w");
  if (f == nullptr) return;
  if (!append) std::fprintf(f, "phase,op,intended_ns,send_ns,recv_ns\n");
  for (const Span& s : st.spans)
    std::fprintf(f, "%s,%s,%llu,%llu,%llu\n", phase, kOpNames[s.op],
                 static_cast<unsigned long long>(s.intended_ns),
                 static_cast<unsigned long long>(s.send_ns),
                 static_cast<unsigned long long>(s.recv_ns));
  std::fclose(f);
}

/// Announces a pause and returns run.py's one-line answer.
std::string Pause(const char* what) {
  std::printf("PAUSE %s\n", what);
  std::fflush(stdout);
  std::string line;
  std::getline(std::cin, line);
  return line;
}

/// Blocks until run.py answers a pause with "PORT <n>".
uint16_t AwaitPort(const char* what) {
  std::string line = Pause(what);
  if (line.rfind("PORT ", 0) != 0) return 0;
  return static_cast<uint16_t>(std::atoi(line.c_str() + 5));
}

}  // namespace

int ServeLoadMain(int argc, char** argv) {
  Config cfg;
  cfg.port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 0));
  cfg.server_pid = static_cast<int>(FlagU64(argc, argv, "--server-pid", 0));
  cfg.seed = FlagU64(argc, argv, "--seed", 1);
  cfg.keys = static_cast<uint32_t>(FlagU64(argc, argv, "--keys", 100000));
  cfg.fill = FlagU64(argc, argv, "--fill", 0);
  cfg.closed_ops = FlagU64(argc, argv, "--closed-ops", 100000);
  cfg.open_ops = FlagU64(argc, argv, "--open-ops", 100000);
  cfg.rate = FlagF64(argc, argv, "--rate", 50000);
  cfg.trace = FlagU64(argc, argv, "--trace", 0) != 0;
  cfg.trace_out = Flag(argc, argv, "--trace-out", "");
  cfg.restart_sample =
      static_cast<uint32_t>(FlagU64(argc, argv, "--restart-sample", 0));
  cfg.inject_wrong = FlagU64(argc, argv, "--inject-wrong", 0) != 0;
  const uint64_t rounds = std::max<uint64_t>(FlagU64(argc, argv, "--rounds", 5), 1);
  const bool preload_only = FlagU64(argc, argv, "--preload-only", 0) != 0;
  std::string mix = Flag(argc, argv, "--mix", "mem");
  if (mix == "mem") {
    cfg.mix = {{0.80, 0.20, 0, 0}, 0};
  } else if (mix == "durable") {
    cfg.mix = {{0.40, 0.50, 0.05, 0.05}, 50};
  } else {
    std::fprintf(stderr, "serve-load: unknown --mix %s\n", mix.c_str());
    return 2;
  }
  if (cfg.keys == 0 || cfg.rate <= 0) return 2;
  // Wake from polls on time: the open loop's own lateness is measured.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<uint32_t> ver(cfg.keys, 0);
  std::vector<uint8_t> uncertain(cfg.keys, 0);
  std::vector<std::unique_ptr<Worker>> workers;
  for (uint32_t t = 0; t < kThreads; ++t) {
    workers.push_back(std::make_unique<Worker>(cfg, t, &ver, &uncertain));
    if (!workers.back()->Connect(cfg.port)) {
      std::fprintf(stderr, "serve-load: cannot connect to port %u\n", cfg.port);
      return 1;
    }
  }
  const int pid = cfg.server_pid;
  JsonOut out;
  out.Num("idle_rss_kb", ProcField(pid, "status", "VmRSS"));
  double wchar0 = ProcField(pid, "io", "wchar");

  double cpu = ProcCpuUs(pid);
  auto cpu_delta = [&] {
    double now = ProcCpuUs(pid), d = now - cpu;
    cpu = now;
    return d;
  };
  PhaseStats pre = Parallel(workers, [&](Worker& w, PhaseStats* st) {
    w.WriteFirst(st, cfg.keys);
  });
  if (cfg.fill > 0) {
    pre.Merge(Parallel(workers, [&](Worker& w, PhaseStats* st) {
      w.WriteFirst(st, cfg.fill / kThreads);
    }));
  }
  out.Raw("preload", PhaseJson(pre, cpu_delta()).Done());
  // Set-up cost: the server's CPU time from launch through preload and fill.
  out.Num("setup_cpu_us", cpu);
  if (preload_only) {
    std::printf("RESULT %s\n", out.Done().c_str());
    return 0;
  }

  // Each phase runs as `rounds` equal fixed-count rounds; run.py reports
  // the lowest round p50, so a burst of outside interference that slows
  // some rounds does not move it, and the server CPU of the whole closed
  // phase, which such a burst does not add to. In traced runs the odd rounds record
  // spans and the even ones do not, which prices the tracing within one
  // run.
  uint64_t writes = pre.attempted;
  std::string closed_json, open_json;
  std::vector<PhaseStats> traced_rounds;
  for (int phase = 0; phase < 2; ++phase) {
    const bool open = phase == 1;
    std::string& js = open ? open_json : closed_json;
    uint64_t per_thread = (open ? cfg.open_ops : cfg.closed_ops) / rounds / kThreads;
    if (!open) Pause("closed-begin");
    for (uint64_t r = 0; r < rounds; ++r) {
      const bool traced = cfg.trace && r % 2 == 1;
      PhaseStats st = Parallel(workers, [&](Worker& w, PhaseStats* s) {
        w.Mixed(s, per_thread, open, traced, (open ? 100 : 10) + r);
      });
      js += (js.empty() ? "[" : ",");
      js += PhaseJson(st, cpu_delta())
                .Num("traced", traced)
                .Num("rss_kb", ProcField(pid, "status", "VmRSS"))
                .Done();
      writes += st.ops[kPut] + st.ops[kDel];
      if (traced) traced_rounds.push_back(std::move(st));
    }
    if (!open) Pause("closed-end");
    js += "]";
  }
  out.Raw("closed", closed_json).Raw("open", open_json);
  out.Num("peak_rss_kb", ProcField(pid, "status", "VmHWM"));
  out.Num("wchar", ProcField(pid, "io", "wchar") - wchar0);
  uint64_t live = 0;
  for (uint32_t v : ver) live += v != 0;
  out.Num("live_keys", static_cast<double>(live));
  out.Num("writes", static_cast<double>(writes));
  if (!cfg.trace_out.empty()) {
    bool append = false;
    for (const PhaseStats& st : traced_rounds) {
      WriteSpans(cfg.trace_out, st.lat_us[kGet].empty() ? "closed" : "open", st, append);
      append = true;
    }
  }

  if (cfg.restart_sample > 0) {
    // Step 1: run.py drains the server and restarts it on the same
    // directory. Step 2: a seeded batch of writes, each acked. Step 3:
    // run.py kills the server with SIGKILL (nothing in flight) and
    // restarts it. Step 4: read back every written key and as many others.
    workers.clear();
    uint16_t port = AwaitPort("restart");
    Rng rng(StreamSeed(cfg.seed, 0x7e57));
    std::vector<uint32_t> written, sample;
    for (uint32_t k = 0; k < cfg.restart_sample; ++k) {
      written.push_back(static_cast<uint32_t>(rng.Below(cfg.keys)));
      sample.push_back(static_cast<uint32_t>(rng.Below(cfg.keys)));
    }
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());
    // Keep written indices whose key is live, so DELETEs hit a real key.
    std::vector<uint32_t> to_write;
    for (uint32_t i : written)
      if (ver[i] != 0 && !uncertain[i]) to_write.push_back(i);
    for (uint32_t t = 0; t < kThreads && port != 0; ++t) {
      workers.push_back(std::make_unique<Worker>(cfg, t, &ver, &uncertain));
      if (!workers.back()->Connect(port)) port = 0;
    }
    PhaseStats wr, rd;
    if (port != 0) {
      wr = Parallel(workers, [&](Worker& w, PhaseStats* st) { w.WriteSet(st, to_write); });
      workers.clear();
      port = AwaitPort("crash");
    }
    for (uint32_t t = 0; t < kThreads && port != 0; ++t) {
      workers.push_back(std::make_unique<Worker>(cfg, t, &ver, &uncertain));
      if (!workers.back()->Connect(port)) port = 0;
    }
    if (port != 0) {
      sample.insert(sample.end(), to_write.begin(), to_write.end());
      rd = Parallel(workers, [&](Worker& w, PhaseStats* st) { w.ReadSet(st, sample); });
    } else {
      rd.failed = 1;
      rd.first_error = "server did not come back after restart";
    }
    out.Raw("restart_write", PhaseJson(wr, 0).Done());
    out.Raw("restart_verify", PhaseJson(rd, 0).Done());
  }
  std::printf("RESULT %s\n", out.Done().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
