// met::serve tests: wire-codec round trips and framing edge cases, then
// in-process server integration — pipelined read-your-writes, cross-shard
// MULTIGET, scans, admission-control shedding, graceful drain, and the
// durability contract (kill -9 loses no acked PUT).
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "guard/net_fault.h"
#include "io/io.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "gtest/gtest.h"

namespace met {
namespace {

using serve::DecodeRequest;
using serve::DecodeResponse;
using serve::DecodeResult;
using serve::OpCode;
using serve::Request;
using serve::RespStatus;
using serve::Response;

// ---- codec -------------------------------------------------------------

TEST(ServeProtocolTest, RequestRoundTripAllOpcodes) {
  std::vector<Request> reqs(5);
  reqs[0].op = OpCode::kGet;
  reqs[0].id = 7;
  reqs[0].key = 0xDEADBEEFCAFE0001ull;
  reqs[1].op = OpCode::kPut;
  reqs[1].id = 8;
  reqs[1].key = 42;
  reqs[1].value = 0x0123456789ABCDEFull;
  reqs[2].op = OpCode::kDelete;
  reqs[2].id = 9;
  reqs[2].key = ~uint64_t{1};
  reqs[3].op = OpCode::kScan;
  reqs[3].id = 10;
  reqs[3].key = 1000;
  reqs[3].scan_limit = serve::kMaxScanLimit;
  reqs[4].op = OpCode::kMultiGet;
  reqs[4].id = 11;
  reqs[4].multi_keys = {1, 2, 3, 0, ~uint64_t{0}};

  std::string buf;
  for (const Request& r : reqs) serve::AppendRequest(r, &buf);

  size_t pos = 0;
  for (const Request& want : reqs) {
    Request got;
    ASSERT_EQ(DecodeResult::kFrame, DecodeRequest(buf, &pos, &got));
    EXPECT_EQ(want.op, got.op);
    EXPECT_EQ(want.id, got.id);
    EXPECT_EQ(want.key, got.key);
    EXPECT_EQ(want.value, got.value);
    EXPECT_EQ(want.scan_limit, got.scan_limit);
    EXPECT_EQ(want.multi_keys, got.multi_keys);
  }
  EXPECT_EQ(buf.size(), pos);
}

TEST(ServeProtocolTest, ResponseRoundTripAllShapes) {
  Response get_ok;
  get_ok.op = OpCode::kGet;
  get_ok.id = 1;
  get_ok.value = 99;
  Response scan_ok;
  scan_ok.op = OpCode::kScan;
  scan_ok.id = 2;
  scan_ok.scan_values = {5, 6, 7};
  Response multi_ok;
  multi_ok.op = OpCode::kMultiGet;
  multi_ok.id = 3;
  multi_ok.multi = {{true, 11}, {false, 0}, {true, 13}};
  Response shed;
  shed.op = OpCode::kPut;
  shed.id = 4;
  shed.status = RespStatus::kShed;
  shed.retry_after_ms = 250;

  std::string buf;
  for (const Response* r : {&get_ok, &scan_ok, &multi_ok, &shed})
    serve::AppendResponse(*r, &buf);

  size_t pos = 0;
  Response got;
  ASSERT_EQ(DecodeResult::kFrame, DecodeResponse(buf, &pos, OpCode::kGet, &got));
  EXPECT_EQ(RespStatus::kOk, got.status);
  EXPECT_EQ(1u, got.id);
  EXPECT_EQ(99u, got.value);
  ASSERT_EQ(DecodeResult::kFrame,
            DecodeResponse(buf, &pos, OpCode::kScan, &got));
  EXPECT_EQ(scan_ok.scan_values, got.scan_values);
  ASSERT_EQ(DecodeResult::kFrame,
            DecodeResponse(buf, &pos, OpCode::kMultiGet, &got));
  ASSERT_EQ(3u, got.multi.size());
  EXPECT_TRUE(got.multi[0].found);
  EXPECT_EQ(11u, got.multi[0].value);
  EXPECT_FALSE(got.multi[1].found);
  ASSERT_EQ(DecodeResult::kFrame, DecodeResponse(buf, &pos, OpCode::kPut, &got));
  EXPECT_EQ(RespStatus::kShed, got.status);
  EXPECT_EQ(4u, got.id);
  EXPECT_EQ(250u, got.retry_after_ms);
  EXPECT_EQ(buf.size(), pos);
}

TEST(ServeProtocolTest, DeadlineAndIdemFlagsRoundTrip) {
  Request put;
  put.op = OpCode::kPut;
  put.id = 21;
  put.key = 5;
  put.value = 6;
  put.deadline_ms = 750;
  put.idem = 0xABCDEF0123456789ull;
  Request get;
  get.op = OpCode::kGet;
  get.id = 22;
  get.key = 9;
  get.deadline_ms = 10;  // deadline without a token
  std::string buf;
  serve::AppendRequest(put, &buf);
  serve::AppendRequest(get, &buf);

  size_t pos = 0;
  Request got;
  ASSERT_EQ(DecodeResult::kFrame, DecodeRequest(buf, &pos, &got));
  EXPECT_EQ(OpCode::kPut, got.op);
  EXPECT_EQ(750u, got.deadline_ms);
  EXPECT_EQ(put.idem, got.idem);
  ASSERT_EQ(DecodeResult::kFrame, DecodeRequest(buf, &pos, &got));
  EXPECT_EQ(OpCode::kGet, got.op);
  EXPECT_EQ(10u, got.deadline_ms);
  EXPECT_EQ(0u, got.idem);
  EXPECT_EQ(buf.size(), pos);
}

TEST(ServeProtocolTest, UnflaggedFramesStayV1Compatible) {
  // A request without deadline/idem must encode exactly as before the v2
  // flags existed: tag byte == bare opcode, body == v1 layout.
  Request get;
  get.op = OpCode::kGet;
  get.id = 3;
  get.key = 77;
  std::string buf;
  serve::AppendRequest(get, &buf);
  ASSERT_EQ(serve::kFrameHeaderBytes + serve::kFrameBodyMinBytes + 8,
            buf.size());
  EXPECT_EQ(static_cast<char>(OpCode::kGet), buf[serve::kFrameHeaderBytes]);
}

TEST(ServeProtocolTest, EveryTruncationPrefixNeedsMoreNeverErrors) {
  Request r;
  r.op = OpCode::kMultiGet;
  r.id = 3;
  r.multi_keys = {10, 20, 30};
  std::string buf;
  serve::AppendRequest(r, &buf);
  Request get;
  get.op = OpCode::kGet;
  get.id = 4;
  get.key = 77;
  serve::AppendRequest(get, &buf);

  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view prefix(buf.data(), cut);
    size_t pos = 0;
    for (;;) {
      Request got;
      DecodeResult res = DecodeRequest(prefix, &pos, &got);
      ASSERT_NE(DecodeResult::kError, res) << "prefix len " << cut;
      if (res == DecodeResult::kNeedMore) break;
      ASSERT_LE(pos, prefix.size());
    }
  }
}

TEST(ServeProtocolTest, GarbageFramesAreErrors) {
  // Length word below the body minimum.
  std::string small;
  serve::PutU32(&small, 2);
  small.append(2, 'x');
  size_t pos = 0;
  Request got;
  EXPECT_EQ(DecodeResult::kError, DecodeRequest(small, &pos, &got));

  // Length word past the frame cap (a 4GB "frame").
  std::string huge;
  serve::PutU32(&huge, 0xFFFFFFFFu);
  huge.append(16, 'x');
  pos = 0;
  EXPECT_EQ(DecodeResult::kError, DecodeRequest(huge, &pos, &got));

  // Unknown opcode with a plausible length.
  std::string badop;
  serve::PutU32(&badop, serve::kFrameBodyMinBytes + 8);
  badop.push_back(42);  // no such opcode
  serve::PutU32(&badop, 1);
  serve::PutU64(&badop, 5);
  pos = 0;
  EXPECT_EQ(DecodeResult::kError, DecodeRequest(badop, &pos, &got));

  // Scan limit above the cap.
  Request scan;
  scan.op = OpCode::kScan;
  scan.id = 1;
  scan.scan_limit = serve::kMaxScanLimit + 1;
  std::string badscan;
  serve::AppendRequest(scan, &badscan);
  pos = 0;
  EXPECT_EQ(DecodeResult::kError, DecodeRequest(badscan, &pos, &got));

  // Payload length that does not match the opcode.
  std::string short_put;
  serve::PutU32(&short_put, serve::kFrameBodyMinBytes + 8);  // PUT needs 16
  short_put.push_back(static_cast<char>(OpCode::kPut));
  serve::PutU32(&short_put, 2);
  serve::PutU64(&short_put, 3);
  pos = 0;
  EXPECT_EQ(DecodeResult::kError, DecodeRequest(short_put, &pos, &got));

  // A kShed response may carry 0 or 4 payload bytes (the retry-after
  // hint); 8 is malformed.
  std::string shed_payload;
  serve::PutU32(&shed_payload, serve::kFrameBodyMinBytes + 8);
  shed_payload.push_back(static_cast<char>(RespStatus::kShed));
  serve::PutU32(&shed_payload, 6);
  serve::PutU64(&shed_payload, 9);
  pos = 0;
  Response resp;
  EXPECT_EQ(DecodeResult::kError,
            DecodeResponse(shed_payload, &pos, OpCode::kGet, &resp));

  // Other non-OK statuses must carry no payload at all.
  std::string err_payload;
  serve::PutU32(&err_payload, serve::kFrameBodyMinBytes + 4);
  err_payload.push_back(static_cast<char>(RespStatus::kError));
  serve::PutU32(&err_payload, 6);
  serve::PutU32(&err_payload, 1);
  pos = 0;
  EXPECT_EQ(DecodeResult::kError,
            DecodeResponse(err_payload, &pos, OpCode::kGet, &resp));

  // A deadline-flagged body too short to hold the deadline field.
  std::string shortflag;
  serve::PutU32(&shortflag, serve::kFrameBodyMinBytes + 8);  // needs +4 more
  shortflag.push_back(static_cast<char>(static_cast<uint8_t>(OpCode::kGet) |
                                        serve::kReqFlagDeadline));
  serve::PutU32(&shortflag, 2);
  serve::PutU64(&shortflag, 3);
  pos = 0;
  EXPECT_EQ(DecodeResult::kError, DecodeRequest(shortflag, &pos, &got));
}

// ---- integration -------------------------------------------------------

serve::ServerOptions MemoryOpts(size_t shards) {
  serve::ServerOptions o;
  o.port = 0;
  o.num_shards = shards;
  return o;
}

class RunningServer {
 public:
  explicit RunningServer(serve::ServerOptions o) : server_(std::move(o)) {
    io::Status st = server_.Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    ok_ = st.ok();
  }
  ~RunningServer() { server_.Shutdown(); }

  bool ok() const { return ok_; }
  uint16_t port() const { return server_.port(); }
  serve::Server* operator->() { return &server_; }

 private:
  serve::Server server_;
  bool ok_ = false;
};

TEST(ServeIntegrationTest, BasicOps) {
  RunningServer s(MemoryOpts(2));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  Response r;
  ASSERT_TRUE(c.Get(1, &r).ok());
  EXPECT_EQ(RespStatus::kNotFound, r.status);

  ASSERT_TRUE(c.Put(1, 100, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);
  ASSERT_TRUE(c.Get(1, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);
  EXPECT_EQ(100u, r.value);

  // Upsert replaces.
  ASSERT_TRUE(c.Put(1, 200, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);
  ASSERT_TRUE(c.Get(1, &r).ok());
  EXPECT_EQ(200u, r.value);

  ASSERT_TRUE(c.Delete(1, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);
  ASSERT_TRUE(c.Get(1, &r).ok());
  EXPECT_EQ(RespStatus::kNotFound, r.status);
  ASSERT_TRUE(c.Delete(1, &r).ok());
  EXPECT_EQ(RespStatus::kNotFound, r.status);

  // The reserved value collides with the tombstone sentinel: rejected.
  ASSERT_TRUE(c.Put(2, serve::kReservedValue, &r).ok());
  EXPECT_EQ(RespStatus::kError, r.status);

  // Empty MULTIGET is answered immediately with zero entries.
  ASSERT_TRUE(c.MultiGet({}, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);
  EXPECT_TRUE(r.multi.empty());
}

TEST(ServeIntegrationTest, PipelinedReadYourWrites) {
  RunningServer s(MemoryOpts(2));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  // PUT then GET of the same key without waiting for the PUT ack: the
  // server executes same-connection requests in arrival order, so the GET
  // must observe the PUT even though its response may arrive first (reads
  // are coalesced ahead of the write group-commit).
  std::vector<std::pair<uint32_t, uint64_t>> gets;
  for (uint64_t k = 100; k < 164; ++k) {
    c.SendPut(k, k * 3 + 1);
    gets.emplace_back(c.SendGet(k), k * 3 + 1);
  }
  ASSERT_TRUE(c.Flush().ok());
  for (const auto& [id, want] : gets) {
    Response r;
    ASSERT_TRUE(c.RecvFor(id, &r).ok());
    ASSERT_EQ(RespStatus::kOk, r.status);
    EXPECT_EQ(want, r.value);
  }
  // Drain the PUT acks still stashed/in flight.
  while (c.inflight() > 0) {
    Response r;
    ASSERT_TRUE(c.Recv(&r).ok());
    EXPECT_EQ(RespStatus::kOk, r.status);
  }
}

TEST(ServeIntegrationTest, MultiGetSpansShards) {
  RunningServer s(MemoryOpts(4));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  Response r;
  for (uint64_t k = 0; k < 100; k += 2) {
    ASSERT_TRUE(c.Put(k, k + 1000, &r).ok());
    ASSERT_EQ(RespStatus::kOk, r.status);
  }
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 100; ++k) keys.push_back(k);
  ASSERT_TRUE(c.MultiGet(keys, &r).ok());
  ASSERT_EQ(RespStatus::kOk, r.status);
  ASSERT_EQ(keys.size(), r.multi.size());
  for (uint64_t k = 0; k < 100; ++k) {
    if (k % 2 == 0) {
      EXPECT_TRUE(r.multi[k].found) << "key " << k;
      EXPECT_EQ(k + 1000, r.multi[k].value);
    } else {
      EXPECT_FALSE(r.multi[k].found) << "key " << k;
    }
  }
}

TEST(ServeIntegrationTest, ScanSingleShardIsOrdered) {
  // Scans cover one hash partition; with one shard that is the whole
  // keyspace, so the result is globally ordered and exhaustive.
  RunningServer s(MemoryOpts(1));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  Response r;
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(c.Put(k, k * 10, &r).ok());
    ASSERT_EQ(RespStatus::kOk, r.status);
  }
  ASSERT_TRUE(c.Scan(10, 20, &r).ok());
  ASSERT_EQ(RespStatus::kOk, r.status);
  ASSERT_EQ(20u, r.scan_values.size());
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ((10 + i) * 10, r.scan_values[i]);

  // Past the end: OK with an empty result.
  ASSERT_TRUE(c.Scan(1000, 5, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);
  EXPECT_TRUE(r.scan_values.empty());
}

TEST(ServeIntegrationTest, ConcurrentClientsDisjointRanges) {
  RunningServer s(MemoryOpts(2));
  ASSERT_TRUE(s.ok());
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 256;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::Client c;
      if (!c.Connect("127.0.0.1", s.port()).ok()) {
        failures[t] = 1000;
        return;
      }
      uint64_t base = 1'000'000ull * static_cast<uint64_t>(t + 1);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Response r;
        if (!c.Put(base + i, base - i, &r).ok() ||
            r.status != RespStatus::kOk) {
          ++failures[t];
        }
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Response r;
        if (!c.Get(base + i, &r).ok() || r.status != RespStatus::kOk ||
            r.value != base - i) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(0, failures[t]) << "thread " << t;
}

// Engine whose reads stall, to force the admission queue to capacity.
class SlowEngine : public serve::ShardEngine {
 public:
  bool Get(uint64_t, uint64_t* value) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    *value = 0;
    return false;
  }
  void GetBatch(const uint64_t*, size_t n, LookupResult* out) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (size_t i = 0; i < n; ++i) out[i] = LookupResult{};
  }
  bool Put(uint64_t, uint64_t) override { return true; }
  bool Delete(uint64_t) override { return true; }
  size_t Scan(uint64_t, size_t, std::vector<uint64_t>*) override { return 0; }
};

TEST(ServeIntegrationTest, AdmissionControlShedsWhenQueueFull) {
  serve::ServerOptions o = MemoryOpts(1);
  o.queue_capacity = 4;
  o.engine_factory = [](size_t) -> std::unique_ptr<serve::ShardEngine> {
    return std::make_unique<SlowEngine>();
  };
  RunningServer s(std::move(o));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  constexpr int kBurst = 300;
  for (int i = 0; i < kBurst; ++i) c.SendGet(static_cast<uint64_t>(i));
  ASSERT_TRUE(c.Flush().ok());
  int shed = 0, notfound = 0;
  for (int i = 0; i < kBurst; ++i) {
    Response r;
    ASSERT_TRUE(c.Recv(&r).ok());
    if (r.status == RespStatus::kShed) ++shed;
    else if (r.status == RespStatus::kNotFound) ++notfound;
    else
      FAIL() << "unexpected status " << static_cast<int>(r.status);
  }
  EXPECT_GT(shed, 0) << "queue_capacity=4 burst of 300 never shed";
  EXPECT_GT(notfound, 0) << "everything shed; nothing executed";
  EXPECT_EQ(kBurst, shed + notfound);
}

TEST(ServeIntegrationTest, ShedCarriesRetryAfterHintForV2Clients) {
  serve::ServerOptions o = MemoryOpts(1);
  o.queue_capacity = 4;
  o.engine_factory = [](size_t) -> std::unique_ptr<serve::ShardEngine> {
    return std::make_unique<SlowEngine>();
  };
  RunningServer s(std::move(o));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());
  // A far-future deadline marks the requests v2 without ever expiring, so
  // shed responses carry the retry-after payload.
  c.set_deadline_ms(60'000);

  constexpr int kBurst = 300;
  for (int i = 0; i < kBurst; ++i) c.SendGet(static_cast<uint64_t>(i));
  ASSERT_TRUE(c.Flush().ok());
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    Response r;
    ASSERT_TRUE(c.Recv(&r).ok());
    if (r.status != RespStatus::kShed) continue;
    ++shed;
    EXPECT_GE(r.retry_after_ms, 1u) << "shed without an actionable hint";
    EXPECT_LE(r.retry_after_ms, 1000u);
  }
  EXPECT_GT(shed, 0);
}

TEST(ServeIntegrationTest, ExpiredDeadlineFailsFastInsteadOfExecuting) {
  serve::ServerOptions o = MemoryOpts(1);
  o.engine_factory = [](size_t) -> std::unique_ptr<serve::ShardEngine> {
    return std::make_unique<SlowEngine>();  // 2ms per read
  };
  RunningServer s(std::move(o));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  // 64 pipelined 1ms-deadline GETs against a 2ms-per-read engine: the
  // head of the queue may execute in time, but the tail's deadlines expire
  // while queued and must be failed without touching the engine.
  constexpr int kN = 64;
  c.set_deadline_ms(1);
  for (int i = 0; i < kN; ++i) c.SendGet(static_cast<uint64_t>(i));
  ASSERT_TRUE(c.Flush().ok());
  int expired = 0, served = 0;
  for (int i = 0; i < kN; ++i) {
    Response r;
    ASSERT_TRUE(c.Recv(&r).ok());
    if (r.status == RespStatus::kDeadlineExceeded) ++expired;
    else if (r.status == RespStatus::kNotFound) ++served;
    else
      FAIL() << "unexpected status " << static_cast<int>(r.status);
  }
  EXPECT_GT(expired, 0) << "no queued deadline ever expired";
  EXPECT_EQ(kN, expired + served);

  // Deadline-free requests on the same connection still execute normally.
  c.set_deadline_ms(0);
  Response r;
  ASSERT_TRUE(c.Get(1, &r).ok());
  EXPECT_EQ(RespStatus::kNotFound, r.status);
}

TEST(ServeIntegrationTest, IdempotencyTokenReplaysDeleteOutcome) {
  RunningServer s(MemoryOpts(1));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  Response r;
  ASSERT_TRUE(c.Put(5, 50, &r).ok());
  ASSERT_EQ(RespStatus::kOk, r.status);

  // First tokened DELETE applies and acks kOk.
  constexpr uint64_t kToken = 0x1234500000000001ull;
  uint32_t id = c.SendDelete(5, kToken);
  ASSERT_TRUE(c.Flush().ok());
  ASSERT_TRUE(c.RecvFor(id, &r).ok());
  ASSERT_EQ(RespStatus::kOk, r.status);

  // A retry with the same token replays the recorded kOk even though the
  // key is now gone — without the window this would ack kNotFound and the
  // client would wrongly conclude its delete lost a race.
  id = c.SendDelete(5, kToken);
  ASSERT_TRUE(c.Flush().ok());
  ASSERT_TRUE(c.RecvFor(id, &r).ok());
  EXPECT_EQ(RespStatus::kOk, r.status);

  // An untokened DELETE of the same key reports the truth: nothing there.
  ASSERT_TRUE(c.Delete(5, &r).ok());
  EXPECT_EQ(RespStatus::kNotFound, r.status);
}

TEST(ServeIntegrationTest, GracefulDrainAnswersEveryAdmittedRequest) {
  auto server = std::make_unique<serve::Server>(MemoryOpts(2));
  ASSERT_TRUE(server->Start().ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server->port()).ok());

  constexpr uint64_t kN = 100;
  for (uint64_t k = 0; k < kN; ++k) c.SendPut(k, k + 5);
  // A fence roundtrip: requests on one connection are decoded in order, so
  // the fence's response proves every PUT above was already admitted.
  Response fence;
  ASSERT_TRUE(c.Get(0, &fence).ok());

  server->Shutdown();  // blocks until drained: all admitted requests answered

  size_t answered = 0;
  while (c.inflight() > 0) {
    Response r;
    ASSERT_TRUE(c.Recv(&r).ok()) << "EOF before all admitted acks arrived";
    EXPECT_EQ(RespStatus::kOk, r.status);
    ++answered;
  }
  EXPECT_EQ(kN, answered);
  server.reset();
}

// Arms the process-global fault injector for one test and guarantees it is
// disabled again afterwards (other tests share the singleton).
class ScopedNetFaults {
 public:
  explicit ScopedNetFaults(const guard::NetFaultSpec& spec) {
    guard::NetFaultInjector::Global().Configure(spec);
  }
  ~ScopedNetFaults() {
    guard::NetFaultInjector::Global().Configure(guard::NetFaultSpec{});
  }
};

TEST(ServeIntegrationTest, ShortReadsAndStallsDeliverEveryFrameIntact) {
  // Clamped reads hit every partial-frame resume path on both sides of the
  // connection; stalls shake out timing assumptions. Every response must
  // still decode and match.
  guard::NetFaultSpec spec;
  spec.seed = 11;
  spec.short_read = 0.8;
  spec.stall = 0.05;
  spec.stall_ms = 1;
  ScopedNetFaults faults(spec);

  RunningServer s(MemoryOpts(2));
  ASSERT_TRUE(s.ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", s.port()).ok());

  Response r;
  for (uint64_t k = 0; k < 48; ++k) {
    ASSERT_TRUE(c.Put(k, k + 7, &r).ok());
    ASSERT_EQ(RespStatus::kOk, r.status);
  }
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 48; ++k) keys.push_back(k);
  ASSERT_TRUE(c.MultiGet(keys, &r).ok());
  ASSERT_EQ(RespStatus::kOk, r.status);
  ASSERT_EQ(keys.size(), r.multi.size());
  for (uint64_t k = 0; k < 48; ++k) {
    ASSERT_TRUE(r.multi[k].found) << "key " << k;
    EXPECT_EQ(k + 7, r.multi[k].value);
  }
  EXPECT_GT(guard::NetFaultInjector::Global().Counts().short_read, 0u)
      << "spec armed but nothing was clamped — test is vacuous";
}

TEST(ServeIntegrationTest, GracefulDrainUnderLoadWithNetFaults) {
  // Shutdown while heavyweight requests (wide MULTIGETs, SCANs) are still
  // in flight on a faulty network: every admitted request must still be
  // answered, in decodable frames, before the listener goes away.
  guard::NetFaultSpec spec;
  spec.seed = 5;
  spec.short_read = 0.5;
  ScopedNetFaults faults(spec);

  // One shard so the SCANs cover the whole keyspace and their width can be
  // asserted exactly.
  auto server = std::make_unique<serve::Server>(MemoryOpts(1));
  ASSERT_TRUE(server->Start().ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server->port()).ok());

  for (uint64_t k = 0; k < 64; ++k) c.SendPut(k, k * 2);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 64; ++k) keys.push_back(k);
  for (int i = 0; i < 8; ++i) {
    c.SendMultiGet(keys);
    c.SendScan(0, 64);
  }
  // The fence proves everything above was admitted before the drain began.
  Response fence;
  ASSERT_TRUE(c.Get(0, &fence).ok());

  server->Shutdown();

  size_t answered = 0;
  while (c.inflight() > 0) {
    Response r;
    ASSERT_TRUE(c.Recv(&r).ok()) << "EOF before all admitted acks arrived";
    ASSERT_EQ(RespStatus::kOk, r.status);
    if (r.op == OpCode::kMultiGet) ASSERT_EQ(keys.size(), r.multi.size());
    if (r.op == OpCode::kScan) ASSERT_EQ(64u, r.scan_values.size());
    ++answered;
  }
  EXPECT_EQ(64u + 16u, answered);
  server.reset();
}

// ---- durability: kill -9 must lose no acked PUT ------------------------

serve::ServerOptions DurableOpts(const std::string& dir) {
  serve::ServerOptions o;
  o.port = 0;
  o.num_shards = 1;
  o.durable = true;
  o.dir = dir;
  return o;
}

TEST(ServeDurableTest, SigkillLosesNoAckedPut) {
  const std::string dir = "/tmp/met_serve_kill_test";
  io::RemoveAllFiles(io::Env::Posix(), dir + "/shard-0");

  int pipefd[2];
  ASSERT_EQ(0, pipe(pipefd));
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: serve durably and report the ephemeral port, then wait to be
    // SIGKILLed mid-flight. _exit on any failure so gtest machinery in the
    // forked copy never runs.
    close(pipefd[0]);
    serve::Server server(DurableOpts(dir));
    if (!server.Start().ok()) _exit(1);
    uint16_t port = server.port();
    if (write(pipefd[1], &port, sizeof(port)) != sizeof(port)) _exit(1);
    for (;;) pause();
  }
  close(pipefd[1]);
  uint16_t port = 0;
  ASSERT_EQ(static_cast<ssize_t>(sizeof(port)),
            read(pipefd[0], &port, sizeof(port)));
  close(pipefd[0]);

  // Every one-shot Put blocks for its ack, and the server group-commits
  // (SyncWal) before releasing write acks — so each acked key is on disk.
  constexpr uint64_t kN = 48;
  {
    serve::Client c;
    ASSERT_TRUE(c.Connect("127.0.0.1", port).ok());
    for (uint64_t k = 1; k <= kN; ++k) {
      Response r;
      ASSERT_TRUE(c.Put(k, k * 7, &r).ok());
      ASSERT_EQ(RespStatus::kOk, r.status);
    }
  }
  ASSERT_EQ(0, kill(pid, SIGKILL));
  ASSERT_EQ(pid, waitpid(pid, nullptr, 0));

  // Recover on the same directory: every acked PUT must still be there.
  serve::Server server(DurableOpts(dir));
  ASSERT_TRUE(server.Start().ok());
  serve::Client c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()).ok());
  for (uint64_t k = 1; k <= kN; ++k) {
    Response r;
    ASSERT_TRUE(c.Get(k, &r).ok());
    ASSERT_EQ(RespStatus::kOk, r.status) << "acked PUT lost: key " << k;
    EXPECT_EQ(k * 7, r.value);
  }
  c.Close();
  server.Shutdown();
}

// The memory engine's ShardEngine surface against a std::map, through
// enough writes for several background merges: upserts, deletes of live
// and absent keys, point and batched reads, and bounded scans must all
// agree with the oracle whichever stages (active, frozen, static) hold the
// keys at the time.
TEST(ServeMemoryTest, EngineMatchesMapAcrossMerges) {
  obs::Counter* merges = obs::MetricsRegistry::Global().GetCounter(
      "hybrid.merge.count");
  const uint64_t merges_before = merges->Value();
  auto engine = serve::NewMemoryEngine();
  std::map<uint64_t, uint64_t> oracle;
  Random rng(20261017);
  // Keys are spread out so scans also start between keys.
  auto random_key = [&rng] { return 1 + 3 * rng.Uniform(16384); };
  auto want_scan = [&oracle](uint64_t start, size_t limit) {
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && want.size() < limit; ++it)
      want.push_back(it->second);
    return want;
  };
  std::vector<uint64_t> got;
  for (int i = 0; i < 60000; ++i) {
    const uint64_t roll = rng.Uniform(100);
    if (roll < 40) {
      const uint64_t key = random_key();
      const uint64_t value = rng.Next() >> 1;
      ASSERT_TRUE(engine->Put(key, value));
      oracle[key] = value;
    } else if (roll < 55) {
      const uint64_t key = random_key();
      ASSERT_EQ(engine->Delete(key), oracle.erase(key) == 1)
          << "op " << i << " key " << key;
    } else if (roll < 80) {
      const uint64_t key = random_key();
      uint64_t value = 0;
      const auto it = oracle.find(key);
      ASSERT_EQ(engine->Get(key, &value), it != oracle.end())
          << "op " << i << " key " << key;
      if (it != oracle.end()) {
        ASSERT_EQ(value, it->second);
      }
    } else if (roll < 90) {
      uint64_t keys[16];
      LookupResult out[16];
      for (uint64_t& k : keys) k = random_key();
      engine->GetBatch(keys, 16, out);
      for (size_t j = 0; j < 16; ++j) {
        const auto it = oracle.find(keys[j]);
        ASSERT_EQ(out[j].found, it != oracle.end())
            << "op " << i << " key " << keys[j];
        if (it != oracle.end()) {
          ASSERT_EQ(out[j].value, it->second);
        }
      }
    } else {
      const uint64_t start = rng.Uniform(3 * 16384 + 8);
      const size_t limit = 1 + rng.Uniform(64);
      const std::vector<uint64_t> want = want_scan(start, limit);
      ASSERT_EQ(engine->Scan(start, limit, &got), want.size());
      ASSERT_EQ(got, want) << "op " << i << " start " << start;
    }
  }
  ASSERT_EQ(engine->Scan(0, oracle.size() + 1, &got), oracle.size());
  EXPECT_EQ(got, want_scan(0, oracle.size()));
  engine.reset();  // waits for an in-flight merge to publish
  EXPECT_GE(merges->Value() - merges_before, 2u);
}

// The durable engine's SCAN is one LsmTree::Scan: empty values (its
// tombstones) are skipped without counting toward the limit, over the
// memtable and a flushed table alike.
TEST(ServeDurableTest, EngineScanSkipsTombstonesAndStopsAtLimit) {
  const std::string dir = "/tmp/met_serve_scan_test";
  io::RemoveAllFiles(io::Env::Posix(), dir);
  io::Status st;
  auto engine = serve::NewDurableEngine(dir, &io::Env::Posix(), &st);
  ASSERT_NE(engine, nullptr) << st.ToString();
  std::map<uint64_t, uint64_t> oracle;
  // ~48 B per entry against a 4 MB memtable: the first 100k puts flush.
  for (uint64_t k = 0; k < 120000; ++k) {
    ASSERT_TRUE(engine->Put(k * 5, k));
    oracle[k * 5] = k;
  }
  for (uint64_t k = 0; k < 120000; k += 7) {
    ASSERT_TRUE(engine->Delete(k * 5));
    oracle.erase(k * 5);
  }
  std::vector<uint64_t> got;
  EXPECT_EQ(engine->Scan(0, 0, &got), 0u);
  uint64_t x = 12345;
  for (int t = 0; t < 200; ++t) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t start = (x >> 20) % 610000;
    const size_t limit = 1 + (x >> 8) % 100;
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && want.size() < limit; ++it)
      want.push_back(it->second);
    ASSERT_EQ(engine->Scan(start, limit, &got), want.size());
    ASSERT_EQ(got, want) << "start " << start << " limit " << limit;
  }
  engine.reset();
  io::RemoveAllFiles(io::Env::Posix(), dir);
}

}  // namespace
}  // namespace met
