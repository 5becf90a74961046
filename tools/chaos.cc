// chaos — end-to-end torture driver for the serving path (the network
// sibling of crash_torture): runs a durable met::serve server as a forked
// child under combined network fault injection, kill -9, and overload
// bursts, while a resilient client checks every outcome against a
// shadow-map oracle.
//
//   chaos [--cycles N] [--ops N] [--kill-every K] [--overload-every M]
//         [--net-fault SPEC|none] [--dir PATH] [--port P] [--seed S]
//         [--queue-cap N]
//
// Each cycle issues --ops mixed PUT/GET/DELETE operations through
// guard::ResilientClient (timeouts, capped-exponential retries with
// idempotency tokens, shed backoff). Every --kill-every cycles the server
// is SIGKILLed — sometimes with a fire-and-forget write in flight — then
// restarted on the same directory and every oracle key is re-verified
// against recovered state. Every --overload-every cycles an open burst
// far past --queue-cap drives the admission controller into shedding.
//
// The oracle tracks, per key, the set of admissible values:
//   - an acked write (kOk / kNotFound for DELETE-miss) fixes the value:
//     acked means group-committed, so it must survive any later kill;
//   - an indeterminate write (every retry died without a definitive
//     answer) widens the set to {previous, new} — at-least-once delivery
//     means either outcome is legal;
//   - a definitive refusal (kShed, kDeadlineExceeded) leaves the set
//     unchanged;
//   - the first read after a recovery narrows the set to the observed
//     value (recovered state is durable, hence final).
//
// Failure conditions (each printed, process exits with the count):
//   - a read outside the admissible set (lost acked write or corruption);
//   - the server crashing on its own (exit without a signal from us);
//   - parent-process fd count not returning to baseline at the end.

#include <dirent.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "flags.h"
#include "guard/net_fault.h"
#include "guard/resilient_client.h"
#include "io/status.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using met::guard::ResilientClient;
using met::serve::RespStatus;
using met::serve::Response;
using met::tools::FlagStr;
using met::tools::FlagU64;

struct Config {
  size_t cycles = 200;
  size_t ops = 20;
  size_t kill_every = 10;      // 0 = never kill
  size_t overload_every = 25;  // 0 = never burst
  std::string net_fault =
      "seed=7,torn=0.02,rst=0.01,stall=0.02,stall_ms=5,short=0.2,dup=0.05";
  std::string dir = "/tmp/met_chaos";
  uint16_t port = 7817;
  uint64_t seed = 1;
  size_t queue_cap = 256;
};

struct Stats {
  uint64_t ops = 0;
  uint64_t acked = 0;
  uint64_t indeterminate = 0;
  uint64_t refused = 0;  // kShed + kDeadlineExceeded
  uint64_t reads = 0;
  uint64_t unresolved_reads = 0;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t burst_shed = 0;
  uint64_t burst_deadline = 0;
  uint64_t burst_ok = 0;
  uint64_t failures = 0;
};

// ---- shadow-map oracle ----------------------------------------------------

using Value = std::optional<uint64_t>;  // nullopt = absent

struct KeyState {
  std::vector<Value> admissible;  // size 1 = definite
};

class Oracle {
 public:
  void AckedWrite(uint64_t key, Value v) { states_[key].admissible = {v}; }

  void IndeterminateWrite(uint64_t key, Value v) {
    KeyState& s = State(key);
    for (const Value& a : s.admissible)
      if (a == v) return;
    s.admissible.push_back(v);
  }

  bool Admissible(uint64_t key, Value observed) {
    KeyState& s = State(key);
    for (const Value& a : s.admissible)
      if (a == observed) return true;
    return false;
  }

  /// Post-recovery narrowing: recovered state is durable, so the observed
  /// value is final for this key.
  void NarrowDurable(uint64_t key, Value observed) {
    states_[key].admissible = {observed};
  }

  const std::unordered_map<uint64_t, KeyState>& states() const {
    return states_;
  }

 private:
  KeyState& State(uint64_t key) {
    auto [it, inserted] = states_.try_emplace(key);
    if (inserted) it->second.admissible = {std::nullopt};  // never written
    return it->second;
  }

  std::unordered_map<uint64_t, KeyState> states_;
};

std::string Show(Value v) {
  return v.has_value() ? std::to_string(*v) : std::string("absent");
}

// ---- child server ---------------------------------------------------------

volatile std::sig_atomic_t g_child_stop = 0;
void ChildStop(int) { g_child_stop = 1; }

/// Forks a child that runs the durable server and writes its port to a
/// pipe once listening. Returns the child pid, or -1 on failure.
pid_t StartServer(const Config& cfg, uint16_t* port) {
  int pfd[2];
  if (pipe(pfd) != 0) return -1;
  pid_t pid = fork();
  if (pid < 0) {
    close(pfd[0]);
    close(pfd[1]);
    return -1;
  }
  if (pid == 0) {
    close(pfd[0]);
    // The child arms fault injection explicitly: the parent's (disabled)
    // injector singleton was inherited by fork, so the env-var path would
    // never re-run.
    if (cfg.net_fault != "none") {
      met::guard::NetFaultSpec spec;
      if (!met::guard::NetFaultSpec::Parse(cfg.net_fault, &spec).ok()) {
        std::fprintf(stderr, "chaos child: bad --net-fault spec\n");
        _exit(3);
      }
      met::guard::NetFaultInjector::Global().Configure(spec);
    }
    met::serve::ServerOptions opts;
    opts.port = cfg.port;
    opts.num_shards = 1;
    opts.queue_capacity = cfg.queue_cap;
    opts.durable = true;
    opts.dir = cfg.dir;
    met::serve::Server server(std::move(opts));
    if (!server.Start().ok()) _exit(2);
    uint16_t p = server.port();
    if (write(pfd[1], &p, sizeof(p)) != sizeof(p)) _exit(2);
    close(pfd[1]);
    struct sigaction sa{};
    sa.sa_handler = ChildStop;
    sigaction(SIGTERM, &sa, nullptr);
    while (g_child_stop == 0) usleep(10 * 1000);
    server.Shutdown();
    _exit(0);
  }
  close(pfd[1]);
  uint16_t p = 0;
  ssize_t n = read(pfd[0], &p, sizeof(p));
  close(pfd[0]);
  if (n != sizeof(p)) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    return -1;
  }
  *port = p;
  return pid;
}

/// Counts open fds of this process via /proc/self/fd (minus the fd opendir
/// itself holds).
int CountOpenFds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return -1;
  int n = 0;
  while (struct dirent* e = readdir(d)) {
    if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
      continue;
    ++n;
  }
  closedir(d);
  return n - 1;
}

// ---- driver ---------------------------------------------------------------

class Driver {
 public:
  explicit Driver(Config cfg)
      : cfg_(std::move(cfg)), rng_(cfg_.seed * 0x9E3779B97F4A7C15ULL + 1) {}

  int Run() {
    if (!Restart(/*first=*/true)) {
      std::fprintf(stderr, "chaos: server failed to start\n");
      return 1;
    }
    for (size_t cycle = 0; cycle < cfg_.cycles; ++cycle) {
      CheckChildAlive(cycle);
      for (size_t i = 0; i < cfg_.ops; ++i) OneOp(cycle, i);
      if (cfg_.overload_every != 0 && cycle % cfg_.overload_every == 0)
        OverloadBurst();
      if (cfg_.kill_every != 0 && (cycle + 1) % cfg_.kill_every == 0)
        KillAndRecover(cycle);
    }
    client_->Close();
    client_.reset();
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int ws = 0;
      waitpid(pid_, &ws, 0);
      if (!WIFEXITED(ws) || WEXITSTATUS(ws) != 0)
        Fail("server did not drain cleanly on SIGTERM");
    }
    return Summary();
  }

  void SetFdBaseline(int n) { fd_baseline_ = n; }

 private:
  void Fail(const std::string& msg) {
    ++stats_.failures;
    std::fprintf(stderr, "chaos: FAIL: %s\n", msg.c_str());
  }

  void CheckChildAlive(size_t cycle) {
    int ws = 0;
    pid_t r = waitpid(pid_, &ws, WNOHANG);
    if (r == 0) return;
    // We never killed it this cycle: any exit here is a crash.
    Fail("server died unprompted before cycle " + std::to_string(cycle) +
         (WIFSIGNALED(ws)
              ? " (signal " + std::to_string(WTERMSIG(ws)) + ")"
              : " (exit " + std::to_string(WEXITSTATUS(ws)) + ")"));
    pid_ = -1;
    if (!Restart(/*first=*/false)) std::abort();
  }

  bool Restart(bool first) {
    uint16_t port = 0;
    pid_ = StartServer(cfg_, &port);
    if (pid_ < 0) return false;
    if (first) {
      ResilientClient::Options copts;
      copts.host = "127.0.0.1";
      copts.port = port;
      copts.timeout_ms = 500;
      copts.max_retries = 6;
      copts.idem_seed = cfg_.seed + 1;
      client_ = std::make_unique<ResilientClient>(copts);
    } else {
      ++stats_.restarts;
      // Same port: the existing client connects again on its next attempt.
      client_->Close();
    }
    return true;
  }

  uint64_t PickKey() {
    if (next_key_ == 0 || rng_.Uniform(4) == 0) return next_key_++;
    return rng_.Uniform(next_key_);  // revisit an existing key
  }

  void OneOp(size_t cycle, size_t i) {
    ++stats_.ops;
    uint64_t key = PickKey();
    uint32_t kind = static_cast<uint32_t>(rng_.Uniform(10));
    Response resp;
    if (kind < 5) {  // PUT
      uint64_t value = (cycle + 1) * 1000000 + i * 100 + rng_.Uniform(100);
      met::io::Status st = client_->Put(key, value, &resp);
      RecordWrite(key, Value{value}, st, resp);
    } else if (kind < 7) {  // DELETE
      met::io::Status st = client_->Delete(key, &resp);
      RecordWrite(key, std::nullopt, st, resp);
    } else {  // GET
      ++stats_.reads;
      met::io::Status st = client_->Get(key, &resp);
      if (!st.ok() || resp.status == RespStatus::kShed ||
          resp.status == RespStatus::kDeadlineExceeded) {
        ++stats_.unresolved_reads;
        return;
      }
      Value observed = resp.status == RespStatus::kOk ? Value{resp.value}
                                                      : std::nullopt;
      if (!oracle_.Admissible(key, observed))
        Fail("read of key " + std::to_string(key) + " saw " + Show(observed) +
             " outside the admissible set");
    }
  }

  void RecordWrite(uint64_t key, Value v, const met::io::Status& st,
                   const Response& resp) {
    if (!st.ok()) {
      // Every attempt died without a definitive answer: the write may or
      // may not have been applied (and may not have been synced).
      ++stats_.indeterminate;
      oracle_.IndeterminateWrite(key, v);
      return;
    }
    switch (resp.status) {
      case RespStatus::kOk:
        ++stats_.acked;
        oracle_.AckedWrite(key, v);
        break;
      case RespStatus::kNotFound:
        // DELETE miss: definitively confirms absence.
        ++stats_.acked;
        oracle_.AckedWrite(key, std::nullopt);
        break;
      case RespStatus::kShed:
      case RespStatus::kDeadlineExceeded:
        ++stats_.refused;  // refused before apply: state unchanged
        break;
      case RespStatus::kError:
        // Sync failure after a possible in-memory apply: indeterminate.
        ++stats_.indeterminate;
        oracle_.IndeterminateWrite(key, v);
        break;
    }
  }

  /// Open burst far past the admission queue's cost capacity; half the
  /// requests carry a tight deadline. Engages shedding (counted, not
  /// failed — that is the controller doing its job).
  void OverloadBurst() {
    met::serve::Client c;
    if (!c.Connect("127.0.0.1", cfg_.port).ok()) return;
    c.SetRecvTimeout(1000);
    const size_t kBurst = 6 * cfg_.queue_cap;
    size_t sent = 0;
    for (size_t i = 0; i < kBurst; ++i) {
      c.set_deadline_ms(i % 2 == 0 ? 0 : 5);
      c.SendGet(next_key_ == 0 ? 0 : rng_.Uniform(next_key_));
      if (++sent % 128 == 0) {
        // Flush failure = injected reset mid-burst; the burst just ends.
        if (!c.Flush().ok()) return;
      }
    }
    if (!c.Flush().ok()) return;
    Response resp;
    for (size_t i = 0; i < sent; ++i) {
      if (!c.Recv(&resp).ok()) break;
      switch (resp.status) {
        case RespStatus::kShed: ++stats_.burst_shed; break;
        case RespStatus::kDeadlineExceeded: ++stats_.burst_deadline; break;
        default: ++stats_.burst_ok; break;
      }
    }
  }

  void KillAndRecover(size_t cycle) {
    // Sometimes leave a write in flight (sent, never awaited) so the kill
    // lands mid-request: a canonically indeterminate outcome.
    if (rng_.Uniform(2) == 0) {
      met::serve::Client c;
      if (c.Connect("127.0.0.1", cfg_.port).ok()) {
        uint64_t key = PickKey();
        uint64_t value = (cycle + 1) * 1000000 + 999999;
        c.SendPut(key, value);
        // Fire and forget: flush failure just means the fault injector got
        // there first — still indeterminate either way.
        (void)c.Flush();
        ++stats_.indeterminate;
        oracle_.IndeterminateWrite(key, Value{value});
      }
    }
    kill(pid_, SIGKILL);
    int ws = 0;
    waitpid(pid_, &ws, 0);
    ++stats_.kills;
    pid_ = -1;
    if (!Restart(/*first=*/false)) {
      Fail("server failed to restart after kill at cycle " +
           std::to_string(cycle));
      std::abort();
    }
    VerifyRecovery();
  }

  /// Reads back every oracle key after recovery. Acked writes must read
  /// back exactly; indeterminate keys must land inside their admissible
  /// set, and are then narrowed (recovered state is durable, hence final).
  void VerifyRecovery() {
    for (const auto& [key, state] : oracle_.states()) {
      Response resp;
      met::io::Status st = client_->Get(key, &resp);
      if (!st.ok() || (resp.status != RespStatus::kOk &&
                       resp.status != RespStatus::kNotFound)) {
        Fail("recovery read of key " + std::to_string(key) +
             " got no definitive answer");
        continue;
      }
      Value observed = resp.status == RespStatus::kOk ? Value{resp.value}
                                                      : std::nullopt;
      if (!oracle_.Admissible(key, observed)) {
        Fail("recovery: key " + std::to_string(key) + " saw " +
             Show(observed) + " outside the admissible set (acked write " +
             "lost or phantom write applied)");
        continue;
      }
      oracle_.NarrowDurable(key, observed);
    }
  }

  int Summary() {
    if (fd_baseline_ >= 0) {
      int now = CountOpenFds();
      if (now != fd_baseline_)
        Fail("fd leak: " + std::to_string(fd_baseline_) + " fds at start, " +
             std::to_string(now) + " at end");
    }
    std::printf(
        "chaos: cycles=%zu ops=%llu acked=%llu indeterminate=%llu "
        "refused=%llu reads=%llu unresolved_reads=%llu\n"
        "chaos: kills=%llu restarts=%llu burst_ok=%llu burst_shed=%llu "
        "burst_deadline=%llu failures=%llu\n",
        cfg_.cycles, static_cast<unsigned long long>(stats_.ops),
        static_cast<unsigned long long>(stats_.acked),
        static_cast<unsigned long long>(stats_.indeterminate),
        static_cast<unsigned long long>(stats_.refused),
        static_cast<unsigned long long>(stats_.reads),
        static_cast<unsigned long long>(stats_.unresolved_reads),
        static_cast<unsigned long long>(stats_.kills),
        static_cast<unsigned long long>(stats_.restarts),
        static_cast<unsigned long long>(stats_.burst_ok),
        static_cast<unsigned long long>(stats_.burst_shed),
        static_cast<unsigned long long>(stats_.burst_deadline),
        static_cast<unsigned long long>(stats_.failures));
    return stats_.failures > 125 ? 125 : static_cast<int>(stats_.failures);
  }

  Config cfg_;
  met::Random rng_;
  pid_t pid_ = -1;
  std::unique_ptr<ResilientClient> client_;
  Oracle oracle_;
  Stats stats_;
  uint64_t next_key_ = 0;
  int fd_baseline_ = -1;
};

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.cycles = FlagU64(argc, argv, "--cycles", 200);
  cfg.ops = FlagU64(argc, argv, "--ops", 20);
  cfg.kill_every = FlagU64(argc, argv, "--kill-every", 10);
  cfg.overload_every = FlagU64(argc, argv, "--overload-every", 25);
  cfg.net_fault = FlagStr(
      argc, argv, "--net-fault",
      "seed=7,torn=0.02,rst=0.01,stall=0.02,stall_ms=5,short=0.2,dup=0.05");
  cfg.dir = FlagStr(argc, argv, "--dir", "/tmp/met_chaos");
  cfg.port = static_cast<uint16_t>(FlagU64(argc, argv, "--port", 7817));
  cfg.seed = FlagU64(argc, argv, "--seed", 1);
  cfg.queue_cap = FlagU64(argc, argv, "--queue-cap", 256);

  // Fresh durable directory per run: stale state would desync the oracle.
  std::string rm = "rm -rf " + cfg.dir;
  if (std::system(rm.c_str()) != 0) {
    std::fprintf(stderr, "chaos: failed to clear %s\n", cfg.dir.c_str());
    return 1;
  }

  Driver driver(std::move(cfg));
  driver.SetFdBaseline(CountOpenFds());
  return driver.Run();
}
