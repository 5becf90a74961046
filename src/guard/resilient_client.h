// Resilient one-shot client for the met::serve wire protocol: a
// serve::Client wrapped in the retry discipline an application needs
// against a server that sheds load, a network that tears frames, and a
// process that can be kill -9'd mid-request.
//
//   - Every attempt is bounded by a per-attempt receive timeout; an expired
//     wait closes the connection (its pipeline state is unknowable) and the
//     next attempt starts on a fresh one.
//   - Retries back off exponentially from 2 ms with a 200 ms cap, and a
//     kShed refusal's retry-after hint overrides the computed delay (the
//     server knows its own standing queue better than the client's guess).
//   - PUT/DELETE attempts carry one idempotency token per logical write, so
//     the server's dedup window collapses at-least-once delivery back to
//     exactly-once application. GETs carry no token.
//
// The contract the chaos oracle (tools/chaos.cc) builds on: an attempt is
// *in doubt* when its frame was flushed and no answer came back — the
// server may still apply it. A kShed or kDeadlineExceeded answer refuses
// only its own attempt, so it settles the call only when no earlier attempt
// is in doubt. An OK, kNotFound or kError answer always settles it (a retried
// write's token makes the dedup window replay the first outcome). So an OK
// return is a definitive answer; a non-OK return is *indeterminate*: the
// write may or may not have been applied.
//
// Single-threaded, like serve::Client.
#ifndef MET_GUARD_RESILIENT_CLIENT_H_
#define MET_GUARD_RESILIENT_CLIENT_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include "io/status.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace met::guard {

class ResilientClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    uint32_t timeout_ms = 250;  // per-attempt receive budget
    uint32_t max_retries = 8;   // attempts = 1 + max_retries
    uint64_t idem_seed = 1;     // namespaces this client's idem tokens
  };

  explicit ResilientClient(Options opts)
      : opts_(std::move(opts)),
        // Token 0 is reserved (means "no token"), so the stream starts at 1
        // within this client's seed-namespaced block.
        next_idem_((opts_.idem_seed << 40) | 1) {
    conn_.SetRecvTimeout(opts_.timeout_ms);
  }

  ResilientClient(const ResilientClient&) = delete;
  ResilientClient& operator=(const ResilientClient&) = delete;

  void Close() { conn_.Close(); }

  /// OK means *resp holds a definitive server answer (possibly kShed after
  /// exhausting retries). Non-OK means no attempt was answered definitively
  /// and at least one may have reached the server, or none could be sent.
  io::Status Get(uint64_t key, serve::Response* resp) {
    return Call(serve::OpCode::kGet, key, 0, 0, resp);
  }

  io::Status Put(uint64_t key, uint64_t value, serve::Response* resp) {
    return Call(serve::OpCode::kPut, key, value, next_idem_++, resp);
  }

  io::Status Delete(uint64_t key, serve::Response* resp) {
    return Call(serve::OpCode::kDelete, key, 0, next_idem_++, resp);
  }

 private:
  static constexpr uint64_t kBackoffBaseMs = 2;
  static constexpr uint64_t kBackoffCapMs = 200;

  /// The one attempt loop: every attempt sends the same request (and, for a
  /// write, the same token) on the current connection.
  io::Status Call(serve::OpCode op, uint64_t key, uint64_t value,
                  uint64_t token, serve::Response* resp) {
    io::Status last = io::Status::IoError("never attempted", 0);
    bool in_doubt = false;
    bool refused = false;
    serve::Response refusal;
    uint32_t hint_ms = 0;  // the previous attempt's retry-after, if refused
    for (uint32_t attempt = 0; attempt <= opts_.max_retries; ++attempt) {
      if (attempt > 0) Backoff(attempt, hint_ms);
      hint_ms = 0;
      if (!conn_.connected()) {
        last = conn_.Connect(opts_.host, opts_.port);
        if (!last.ok()) continue;
      }
      uint32_t id = op == serve::OpCode::kGet ? conn_.SendGet(key)
                    : op == serve::OpCode::kPut
                        ? conn_.SendPut(key, value, token)
                        : conn_.SendDelete(key, token);
      // A failed flush left at most a torn frame, which the server cannot
      // decode, so that attempt is not in doubt.
      last = conn_.Flush();
      if (last.ok()) {
        last = conn_.RecvFor(id, resp);
        in_doubt |= !last.ok();
      }
      if (!last.ok()) {
        conn_.Close();
        continue;
      }
      if (resp->status != serve::RespStatus::kShed &&
          resp->status != serve::RespStatus::kDeadlineExceeded)
        return io::Status::OK();
      refused = true;
      refusal = *resp;
      hint_ms = resp->retry_after_ms;
    }
    if (in_doubt)
      return io::Status::IoError("indeterminate: an attempt went unanswered",
                                 0);
    if (refused) {  // every answered attempt was refused before apply
      *resp = refusal;
      return io::Status::OK();
    }
    return last;
  }

  void Backoff(uint32_t attempt, uint32_t hint_ms) {
    uint64_t ms = hint_ms;  // the server's hint beats the local guess
    if (ms == 0)
      ms = std::min(kBackoffBaseMs << std::min(attempt - 1, 16u),
                    kBackoffCapMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }

  Options opts_;
  serve::Client conn_;
  uint64_t next_idem_;
};

}  // namespace met::guard

#endif  // MET_GUARD_RESILIENT_CLIENT_H_
