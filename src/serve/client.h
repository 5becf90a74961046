// Blocking pipelined client for the met::serve wire protocol. One instance
// drives one connection from one thread: Send* calls append encoded frames
// to an output buffer and record the id -> opcode mapping (responses can
// come back out of order — shards answer independently and write acks wait
// for the group commit — so the opcode needed to decode a response is
// looked up by the echoed id), Flush() pushes the buffered frames, and
// Recv()/RecvFor() block for responses.
// The load generator keeps a deep pipeline with Send*/Flush/Recv; tests use
// the one-shot conveniences (Get/Put/...) that round-trip a single request.
#ifndef MET_SERVE_CLIENT_H_
#define MET_SERVE_CLIENT_H_

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "io/status.h"
#include "serve/net.h"
#include "serve/protocol.h"

namespace met::serve {

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  io::Status Connect(const std::string& host, uint16_t port) {
    Close();
    io::Status st = ConnectTcp(host, port, &fd_);
    if (st.ok() && recv_timeout_ms_ != 0) ApplyRecvTimeout();
    return st;
  }

  /// Caps every blocking receive (Recv/RecvFor/Fill) at `ms` milliseconds
  /// via SO_RCVTIMEO; an expired wait surfaces as an EAGAIN IoError — test
  /// with IsTimeout(). 0 restores fully blocking reads. Survives
  /// reconnects; may be called before or after Connect().
  void SetRecvTimeout(uint32_t ms) {
    recv_timeout_ms_ = ms;
    if (fd_ >= 0) ApplyRecvTimeout();
  }

  /// True when a receive Status is a SO_RCVTIMEO expiry rather than a dead
  /// connection: the op is unresolved (timeout), not failed.
  static bool IsTimeout(const io::Status& st) {
    return st.IsIoError() &&
           (st.errno_value() == EAGAIN || st.errno_value() == EWOULDBLOCK);
  }

  /// Deadline budget attached to every subsequently sent request (0 =
  /// none). The server refuses the request with kDeadlineExceeded instead
  /// of answering it late.
  void set_deadline_ms(uint32_t ms) { deadline_ms_ = ms; }

  void Close() {
    if (fd_ >= 0) {
      CloseFd(fd_);
      fd_ = -1;
    }
    rbuf_.clear();
    rpos_ = 0;
    out_.clear();
    inflight_.clear();
    stashed_.clear();
  }

  bool connected() const { return fd_ >= 0; }
  size_t inflight() const { return inflight_.size(); }
  /// The underlying socket, for callers that poll() readability themselves
  /// (the open-loop load generator) before calling Fill().
  int fd() const { return fd_; }

  // ---- pipelined interface ----

  uint32_t SendGet(uint64_t key) {
    Request r;
    r.op = OpCode::kGet;
    r.key = key;
    return Send(&r);
  }
  /// `idem` (non-zero) is an idempotency token: a retry carrying the same
  /// token is acked from the server's dedup window instead of re-applying.
  uint32_t SendPut(uint64_t key, uint64_t value, uint64_t idem = 0) {
    Request r;
    r.op = OpCode::kPut;
    r.key = key;
    r.value = value;
    r.idem = idem;
    return Send(&r);
  }
  uint32_t SendDelete(uint64_t key, uint64_t idem = 0) {
    Request r;
    r.op = OpCode::kDelete;
    r.key = key;
    r.idem = idem;
    return Send(&r);
  }
  uint32_t SendScan(uint64_t start, uint32_t limit) {
    Request r;
    r.op = OpCode::kScan;
    r.key = start;
    r.scan_limit = limit;
    return Send(&r);
  }
  uint32_t SendMultiGet(std::vector<uint64_t> keys) {
    Request r;
    r.op = OpCode::kMultiGet;
    r.multi_keys = std::move(keys);
    return Send(&r);
  }

  io::Status Flush() {
    if (out_.empty()) return io::Status::OK();
    io::Status st = SendAll(fd_, out_);
    out_.clear();
    return st;
  }

  /// Blocks for the next response in arrival order (not send order).
  io::Status Recv(Response* resp) {
    if (!stashed_.empty()) {
      auto it = stashed_.begin();
      *resp = std::move(it->second);
      stashed_.erase(it);
      return io::Status::OK();
    }
    return RecvFromWire(resp);
  }

  /// Decodes one buffered response without touching the socket; *have is
  /// false when the buffer holds no complete frame (call Fill() after
  /// poll() reports the socket readable). Checks stashed responses first.
  io::Status TryRecv(Response* resp, bool* have) {
    *have = false;
    if (!stashed_.empty()) {
      auto it = stashed_.begin();
      *resp = std::move(it->second);
      stashed_.erase(it);
      *have = true;
      return io::Status::OK();
    }
    return DecodeBuffered(resp, have);
  }

  /// Blocking read of at least one byte into the receive buffer.
  io::Status Fill() { return RecvSome(fd_, &rbuf_); }

  /// Blocks until the response for `id` arrives, stashing any other
  /// responses that land first (they come back via later Recv/RecvFor).
  io::Status RecvFor(uint32_t id, Response* resp) {
    auto stashed = stashed_.find(id);
    if (stashed != stashed_.end()) {
      *resp = std::move(stashed->second);
      stashed_.erase(stashed);
      return io::Status::OK();
    }
    for (;;) {
      Response r;
      if (io::Status st = RecvFromWire(&r); !st.ok()) return st;
      if (r.id == id) {
        *resp = std::move(r);
        return io::Status::OK();
      }
      stashed_[r.id] = std::move(r);
    }
  }

  // ---- one-shot conveniences (single round trip) ----

  io::Status Get(uint64_t key, Response* resp) {
    return Roundtrip(SendGet(key), resp);
  }
  io::Status Put(uint64_t key, uint64_t value, Response* resp) {
    return Roundtrip(SendPut(key, value), resp);
  }
  io::Status Delete(uint64_t key, Response* resp) {
    return Roundtrip(SendDelete(key), resp);
  }
  io::Status Scan(uint64_t start, uint32_t limit, Response* resp) {
    return Roundtrip(SendScan(start, limit), resp);
  }
  io::Status MultiGet(std::vector<uint64_t> keys, Response* resp) {
    return Roundtrip(SendMultiGet(std::move(keys)), resp);
  }

 private:
  uint32_t Send(Request* r) {
    r->id = next_id_++;
    r->deadline_ms = deadline_ms_;
    inflight_[r->id] = r->op;
    AppendRequest(*r, &out_);
    return r->id;
  }

  void ApplyRecvTimeout() {
    timeval tv{};
    tv.tv_sec = recv_timeout_ms_ / 1000;
    tv.tv_usec = static_cast<suseconds_t>((recv_timeout_ms_ % 1000) * 1000);
    // Best effort: a socket that rejects SO_RCVTIMEO still works, it just
    // blocks; timeout-dependent callers notice via their own deadlines.
    (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  io::Status Roundtrip(uint32_t id, Response* resp) {
    if (io::Status st = Flush(); !st.ok()) return st;
    return RecvFor(id, resp);
  }

  io::Status DecodeBuffered(Response* resp, bool* have) {
    *have = false;
    // A response's payload shape depends on the request opcode, so peek
    // the echoed id (fixed offset) to find it before decoding.
    if (rbuf_.size() - rpos_ < kFrameHeaderBytes + kFrameBodyMinBytes)
      return io::Status::OK();
    uint32_t id = GetU32(rbuf_.data() + rpos_ + kFrameHeaderBytes + 1);
    auto it = inflight_.find(id);
    if (it == inflight_.end())
      return io::Status::InvalidArgument("response for unknown id");
    size_t consumed = rpos_;
    DecodeResult r = DecodeResponse(rbuf_, &consumed, it->second, resp);
    if (r == DecodeResult::kError)
      return io::Status::InvalidArgument("malformed response frame");
    if (r == DecodeResult::kNeedMore) return io::Status::OK();
    rpos_ = consumed;
    if (rpos_ == rbuf_.size()) {
      rbuf_.clear();
      rpos_ = 0;
    }
    inflight_.erase(it);
    *have = true;
    return io::Status::OK();
  }

  io::Status RecvFromWire(Response* resp) {
    for (;;) {
      bool have = false;
      if (io::Status st = DecodeBuffered(resp, &have); !st.ok()) return st;
      if (have) return io::Status::OK();
      if (io::Status st = RecvSome(fd_, &rbuf_); !st.ok()) return st;
    }
  }

  int fd_ = -1;
  uint32_t next_id_ = 1;
  uint32_t recv_timeout_ms_ = 0;
  uint32_t deadline_ms_ = 0;
  std::string rbuf_;
  size_t rpos_ = 0;
  std::string out_;
  std::unordered_map<uint32_t, OpCode> inflight_;
  std::unordered_map<uint32_t, Response> stashed_;
};

}  // namespace met::serve

#endif  // MET_SERVE_CLIENT_H_
