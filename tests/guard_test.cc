// met::guard tests: net-fault spec parsing + injector determinism, the
// cost-aware CoDel admission controller (levels, cost caps, retry-after),
// the idempotency dedup window, and the resilient client's retry loop and
// definitive/indeterminate contract against a scripted server.
#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "guard/admission.h"
#include "guard/dedup.h"
#include "guard/metrics.h"
#include "guard/net_fault.h"
#include "guard/resilient_client.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace met {
namespace {

using guard::AdmissionController;
using guard::AdmissionOptions;
using guard::DedupWindow;
using guard::NetFaultInjector;
using guard::NetFaultSpec;
using guard::ResilientClient;
using serve::RespStatus;
using serve::Response;

// ---- net-fault spec -----------------------------------------------------

TEST(NetFaultSpecTest, ParsesFullGrammar) {
  NetFaultSpec spec;
  ASSERT_TRUE(NetFaultSpec::Parse(
                  "seed=9,torn=0.25,rst=0.125,stall=0.5,stall_ms=7,"
                  "short=0.75,dup=1",
                  &spec)
                  .ok());
  EXPECT_EQ(9u, spec.seed);
  EXPECT_DOUBLE_EQ(0.25, spec.torn);
  EXPECT_DOUBLE_EQ(0.125, spec.rst);
  EXPECT_DOUBLE_EQ(0.5, spec.stall);
  EXPECT_EQ(7u, spec.stall_ms);
  EXPECT_DOUBLE_EQ(0.75, spec.short_read);
  EXPECT_DOUBLE_EQ(1.0, spec.dup);
  EXPECT_TRUE(spec.enabled());

  // ToString round-trips through Parse.
  NetFaultSpec again;
  ASSERT_TRUE(NetFaultSpec::Parse(spec.ToString(), &again).ok());
  EXPECT_DOUBLE_EQ(spec.torn, again.torn);
  EXPECT_DOUBLE_EQ(spec.dup, again.dup);
  EXPECT_EQ(spec.stall_ms, again.stall_ms);
}

TEST(NetFaultSpecTest, RejectsMalformedSpecs) {
  NetFaultSpec spec;
  EXPECT_FALSE(NetFaultSpec::Parse("bogus=1", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn=1.5", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn=-0.1", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn", &spec).ok());
  EXPECT_FALSE(NetFaultSpec::Parse("torn=abc", &spec).ok());
}

TEST(NetFaultSpecTest, DefaultSpecIsDisabled) {
  NetFaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  NetFaultInjector inj(spec);
  EXPECT_FALSE(inj.enabled());
}

TEST(NetFaultInjectorTest, SameSeedReplaysIdentically) {
  NetFaultSpec spec;
  ASSERT_TRUE(NetFaultSpec::Parse(
                  "seed=3,torn=0.1,rst=0.05,stall=0.1,stall_ms=2,short=0.3,"
                  "dup=0.2",
                  &spec)
                  .ok());
  NetFaultInjector a(spec);
  NetFaultInjector b(spec);
  for (int i = 0; i < 2000; ++i) {
    size_t clamp_a = 0, clamp_b = 0;
    EXPECT_EQ(a.RollWrite(128, &clamp_a), b.RollWrite(128, &clamp_b));
    EXPECT_EQ(clamp_a, clamp_b);
    EXPECT_EQ(a.RollStallNs(), b.RollStallNs());
    EXPECT_EQ(a.ClampRead(4096), b.ClampRead(4096));
    EXPECT_EQ(a.RollDuplicate(), b.RollDuplicate());
  }
  EXPECT_EQ(a.Counts().Total(), b.Counts().Total());
  EXPECT_GT(a.Counts().Total(), 0u) << "probabilities armed, nothing fired";
  EXPECT_EQ(a.Counts().torn, b.Counts().torn);
  EXPECT_EQ(a.Counts().short_read, b.Counts().short_read);
}

TEST(NetFaultInjectorTest, TornClampIsAProperPrefix) {
  NetFaultSpec spec;
  spec.seed = 2;
  spec.torn = 1.0;  // every write tears
  NetFaultInjector inj(spec);
  for (int i = 0; i < 200; ++i) {
    size_t clamp = 0;
    ASSERT_EQ(NetFaultInjector::WriteFault::kTorn, inj.RollWrite(64, &clamp));
    EXPECT_GE(clamp, 1u);
    EXPECT_LT(clamp, 64u);
  }
}

// ---- admission control --------------------------------------------------

TEST(AdmissionTest, CostModelOrdersRequestClasses) {
  EXPECT_LT(guard::kCostGet, guard::kCostWrite);
  EXPECT_LT(guard::kCostWrite, guard::CostMultiGet(64));
  // 1024 is serve::kMaxScanLimit; a full-width scan must out-cost a wide
  // multiget so level-1 shedding drops scans first.
  EXPECT_LT(guard::CostMultiGet(64), guard::CostScan(1024));
  EXPECT_EQ(1u, guard::CostMultiGet(0));  // empty still costs admission
  EXPECT_GE(guard::CostScan(0), 1u);
}

TEST(AdmissionTest, CostCapacityShedsWithActionableHint) {
  AdmissionOptions o;
  o.cost_capacity = 10;
  AdmissionController a(o);

  uint32_t hint = 0;
  EXPECT_EQ(AdmissionController::Decision::kAdmit, a.Admit(8, 8, &hint));
  a.OnEnqueue(8);
  EXPECT_EQ(8u, a.queued_cost());
  // 8 queued + 8 more > 10: shed, with a hint in [1ms, 1s].
  EXPECT_EQ(AdmissionController::Decision::kShed, a.Admit(8, 8, &hint));
  EXPECT_GE(hint, 1u);
  EXPECT_LE(hint, 1000u);
  // A cheap GET still fits.
  EXPECT_EQ(AdmissionController::Decision::kAdmit, a.Admit(1, 1, nullptr));
}

/// Feeds one complete CoDel interval whose minimum queue delay is
/// `min_delay_ns`, advancing *now past the interval boundary.
void FeedInterval(AdmissionController* a, uint64_t min_delay_ns,
                  uint64_t* now) {
  a->OnDequeue(0, min_delay_ns, *now);
  *now += a->options().interval_ns + 1;
  a->OnDequeue(0, min_delay_ns, *now);
  *now += 1;
}

TEST(AdmissionTest, StandingDelayEscalatesAndRecoveryDeescalates) {
  AdmissionOptions o;
  o.delay_target_ns = 5 * 1000 * 1000;
  AdmissionController a(o);
  uint64_t now = 1;
  const uint64_t high = 20 * 1000 * 1000;  // 20ms standing delay
  const uint64_t low = 1 * 1000 * 1000;    // 1ms: under half the target

  EXPECT_EQ(0, a.overload_level());
  FeedInterval(&a, high, &now);
  EXPECT_EQ(1, a.overload_level());
  // Level 1: heavy scans shed, writes and small multigets survive.
  EXPECT_EQ(AdmissionController::Decision::kShed,
            a.Admit(guard::CostScan(1024), guard::CostScan(1024), nullptr));
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::kCostWrite, guard::kCostWrite, nullptr));
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::CostMultiGet(8), guard::CostMultiGet(8), nullptr));

  FeedInterval(&a, high, &now);
  EXPECT_EQ(2, a.overload_level());
  // Level 2: writes shed too; single GETs survive.
  EXPECT_EQ(AdmissionController::Decision::kShed,
            a.Admit(guard::kCostWrite, guard::kCostWrite, nullptr));
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::kCostGet, guard::kCostGet, nullptr));

  FeedInterval(&a, high, &now);
  EXPECT_EQ(3, a.overload_level());
  FeedInterval(&a, high, &now);
  EXPECT_EQ(3, a.overload_level()) << "level must saturate at kMaxLevel";
  // Level 3: every other GET sheds — a pair of admits must contain one of
  // each, whichever parity the tick counter is on.
  auto first = a.Admit(guard::kCostGet, guard::kCostGet, nullptr);
  auto second = a.Admit(guard::kCostGet, guard::kCostGet, nullptr);
  EXPECT_NE(first, second);

  // The hint tracks the standing delay: 2 * 20ms.
  EXPECT_EQ(40u, a.RetryAfterMs());

  FeedInterval(&a, low, &now);
  EXPECT_EQ(2, a.overload_level());
  FeedInterval(&a, low, &now);
  FeedInterval(&a, low, &now);
  EXPECT_EQ(0, a.overload_level());
  EXPECT_EQ(AdmissionController::Decision::kAdmit,
            a.Admit(guard::CostScan(1024), guard::CostScan(1024), nullptr));
}

// ---- dedup window -------------------------------------------------------

TEST(DedupWindowTest, RecordsAndReplaysOutcomes) {
  DedupWindow w(4);
  EXPECT_EQ(nullptr, w.Find(1));
  w.Insert(1, true);
  w.Insert(2, false);
  ASSERT_NE(nullptr, w.Find(1));
  EXPECT_TRUE(*w.Find(1));
  ASSERT_NE(nullptr, w.Find(2));
  EXPECT_FALSE(*w.Find(2));
  EXPECT_EQ(2u, w.size());
}

TEST(DedupWindowTest, EvictsOldestBeyondCapacity) {
  DedupWindow w(3);
  w.Insert(1, true);
  w.Insert(2, true);
  w.Insert(3, true);
  w.Insert(4, true);  // evicts token 1
  EXPECT_EQ(nullptr, w.Find(1));
  EXPECT_NE(nullptr, w.Find(2));
  EXPECT_NE(nullptr, w.Find(4));
  EXPECT_EQ(3u, w.size());
  w.Insert(5, true);  // evicts token 2
  EXPECT_EQ(nullptr, w.Find(2));
  EXPECT_NE(nullptr, w.Find(3));
}

TEST(DedupWindowTest, TokenZeroAndZeroCapacityAreInert) {
  DedupWindow w(2);
  w.Insert(0, true);
  EXPECT_EQ(nullptr, w.Find(0));
  EXPECT_EQ(0u, w.size());

  DedupWindow off(0);
  off.Insert(7, true);
  EXPECT_EQ(nullptr, off.Find(7));
}

// ---- resilient client ---------------------------------------------------

/// A stand-in for met_server that plays a script: it decodes every request
/// on every connection, records it, and lets the script answer it, swallow
/// it, or drop the connection without an answer.
class ScriptedServer {
 public:
  enum class Action { kAnswer, kSwallow, kDrop };
  /// Decides the fate of the n-th request (from 0, across connections);
  /// for kAnswer it may change *resp, which starts as a kOk for the
  /// request's id and opcode.
  using Script = std::function<Action(size_t n, Response* resp)>;

  struct Arrival {
    serve::Request req;
    uint64_t at_ns = 0;
  };

  explicit ScriptedServer(Script script) : script_(std::move(script)) {
    io::Status st = serve::OpenListener(0, &listen_fd_, &port_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    thread_ = std::thread([this] { Loop(); });
  }
  ~ScriptedServer() {
    Stop();
    serve::CloseFd(listen_fd_);
  }
  ScriptedServer(const ScriptedServer&) = delete;
  ScriptedServer& operator=(const ScriptedServer&) = delete;

  uint16_t port() const { return port_; }

  /// Joins the server thread; arrivals() may be read after this.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<Arrival>& arrivals() const { return arrivals_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
  };

  void Loop() {
    std::vector<Conn> conns;
    while (!stop_.load()) {
      std::vector<pollfd> fds{{listen_fd_, POLLIN, 0}};
      for (const Conn& c : conns) fds.push_back({c.fd, POLLIN, 0});
      if (poll(fds.data(), fds.size(), 5) <= 0) continue;
      std::vector<Conn> live;
      for (size_t i = 0; i < conns.size(); ++i) {
        if (fds[i + 1].revents == 0 || Serve(&conns[i]))
          live.push_back(std::move(conns[i]));
        else
          serve::CloseFd(conns[i].fd);
      }
      conns.swap(live);
      int fd = -1;
      if (fds[0].revents != 0 && serve::AcceptConn(listen_fd_, &fd).ok() &&
          fd >= 0)
        conns.push_back({fd, {}});
    }
    for (const Conn& c : conns) serve::CloseFd(c.fd);
  }

  /// Plays the script on every complete request the connection holds.
  /// False when the connection is gone or the script dropped it.
  bool Serve(Conn* c) {
    bool eof = false, would_block = false;
    if (!serve::ReadSome(c->fd, &c->in, &eof, &would_block).ok() || eof)
      return false;
    size_t pos = 0;
    serve::Request req;
    while (serve::DecodeRequest(c->in, &pos, &req) ==
           serve::DecodeResult::kFrame) {
      arrivals_.push_back({req, obs::NowNanos()});
      Response resp;
      resp.id = req.id;
      resp.op = req.op;
      Action a = script_(arrivals_.size() - 1, &resp);
      if (a == Action::kDrop) return false;
      if (a == Action::kSwallow) continue;
      std::string frame;
      serve::AppendResponse(resp, &frame);
      if (!serve::SendAll(c->fd, frame).ok()) return false;
    }
    c->in.erase(0, pos);
    return true;
  }

  Script script_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<Arrival> arrivals_;  // server thread only until Stop()
  std::thread thread_;
};

ResilientClient::Options ClientOpts(uint16_t port, uint32_t max_retries) {
  ResilientClient::Options o;
  o.port = port;
  o.timeout_ms = 100;
  o.max_retries = max_retries;
  return o;
}

ScriptedServer::Action Shed(Response* resp, uint32_t retry_after_ms) {
  resp->status = RespStatus::kShed;
  resp->retry_after_ms = retry_after_ms;
  return ScriptedServer::Action::kAnswer;
}

TEST(ResilientClientTest, ShedThenUnansweredAttemptIsIndeterminate) {
  // Attempt 1 is refused; attempt 2 reaches the server and is never
  // answered, so it may have been applied. The refusal of attempt 1 must
  // not be reported as the outcome.
  ScriptedServer srv([](size_t n, Response* resp) {
    return n == 0 ? Shed(resp, 1) : ScriptedServer::Action::kSwallow;
  });
  ResilientClient client(ClientOpts(srv.port(), 1));
  Response resp;
  io::Status st = client.Put(7, 70, &resp);
  EXPECT_FALSE(st.ok()) << "returned OK with status "
                        << static_cast<int>(resp.status);
  srv.Stop();
  EXPECT_EQ(2u, srv.arrivals().size());
}

TEST(ResilientClientTest, EveryAttemptShedReturnsTheRefusal) {
  ScriptedServer srv([](size_t, Response* resp) { return Shed(resp, 1); });
  ResilientClient client(ClientOpts(srv.port(), 3));
  Response resp;
  ASSERT_TRUE(client.Get(5, &resp).ok());
  EXPECT_EQ(RespStatus::kShed, resp.status);
  srv.Stop();
  EXPECT_EQ(4u, srv.arrivals().size());  // 1 + max_retries
}

TEST(ResilientClientTest, BackoffFollowsTheRetryAfterHint) {
  constexpr uint32_t kHintMs = 40;  // far above the 2 ms computed backoff
  ScriptedServer srv([](size_t n, Response* resp) {
    return n < 2 ? Shed(resp, kHintMs) : ScriptedServer::Action::kAnswer;
  });
  ResilientClient client(ClientOpts(srv.port(), 4));
  Response resp;
  ASSERT_TRUE(client.Put(1, 2, &resp).ok());
  EXPECT_EQ(RespStatus::kOk, resp.status);
  srv.Stop();
  const auto& a = srv.arrivals();
  ASSERT_EQ(3u, a.size());
  for (size_t i = 1; i < a.size(); ++i)
    EXPECT_GE(a[i].at_ns - a[i - 1].at_ns, uint64_t{kHintMs} * 1000000)
        << "attempt " << i + 1;
}

TEST(ResilientClientTest, RetriedWriteReusesItsTokenAcrossConnections) {
  // Attempt 1 is swallowed (timeout), attempt 2 loses its connection,
  // attempt 3 is answered: one logical write, one token on every frame.
  ScriptedServer srv([](size_t n, Response*) {
    if (n == 0) return ScriptedServer::Action::kSwallow;
    if (n == 1) return ScriptedServer::Action::kDrop;
    return ScriptedServer::Action::kAnswer;
  });
  ResilientClient client(ClientOpts(srv.port(), 4));
  Response resp;
  ASSERT_TRUE(client.Put(3, 30, &resp).ok());
  EXPECT_EQ(RespStatus::kOk, resp.status);
  ASSERT_TRUE(client.Delete(3, &resp).ok());
  srv.Stop();
  const auto& a = srv.arrivals();
  ASSERT_EQ(4u, a.size());
  const uint64_t token = a[0].req.idem;
  EXPECT_NE(0u, token);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serve::OpCode::kPut, a[i].req.op);
    EXPECT_EQ(token, a[i].req.idem) << "attempt " << i + 1;
  }
  // The next logical write gets a fresh token.
  EXPECT_EQ(serve::OpCode::kDelete, a[3].req.op);
  EXPECT_NE(0u, a[3].req.idem);
  EXPECT_NE(token, a[3].req.idem);
}

TEST(ResilientClientTest, RoundTripAgainstARealServer) {
  serve::ServerOptions o;
  o.port = 0;
  o.num_shards = 2;
  serve::Server server(std::move(o));
  ASSERT_TRUE(server.Start().ok());
  ResilientClient client(ClientOpts(server.port(), 2));
  Response resp;
  ASSERT_TRUE(client.Put(11, 110, &resp).ok());
  EXPECT_EQ(RespStatus::kOk, resp.status);
  ASSERT_TRUE(client.Get(11, &resp).ok());
  EXPECT_EQ(RespStatus::kOk, resp.status);
  EXPECT_EQ(110u, resp.value);
  ASSERT_TRUE(client.Delete(11, &resp).ok());
  EXPECT_EQ(RespStatus::kOk, resp.status);
  ASSERT_TRUE(client.Get(11, &resp).ok());
  EXPECT_EQ(RespStatus::kNotFound, resp.status);
  client.Close();
  server.Shutdown();
}

}  // namespace
}  // namespace met
