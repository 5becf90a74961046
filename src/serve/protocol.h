// met::serve wire protocol — pipelined, length-prefixed binary frames.
//
// Every frame (both directions) is:
//
//   [u32 body_len][u8 tag][u32 request_id][payload ...]
//                  `---------- body_len bytes ---------'
//
// All integers are little-endian. body_len counts everything after the
// length word (tag + id + payload) and is bounded by kMaxFrameBytes, so a
// garbage length can never commit the peer to an unbounded read. The
// request_id is chosen by the client and echoed verbatim in the response:
// requests on one connection may be answered out of order (the server
// coalesces point reads across connections into batch groups), so the id —
// not arrival order — is the correlation key. Per connection the server
// still *executes* same-shard requests in arrival order, which is what
// makes pipelined read-your-writes hold (PUT k, GET k without waiting for
// the PUT ack sees the PUT).
//
// The request tag byte is versioned: the low 6 bits are the opcode, the
// high 2 bits are feature flags that extend the fixed header. A v1 client
// never sets flags, so its frames decode unchanged; a v2 server reads the
// flags it knows and rejects the rest (strict decoding, below):
//
//   0x80 kReqFlagDeadline  u32 deadline_ms follows the request id — the
//                          client's remaining latency budget. The server
//                          sheds the request with kDeadlineExceeded instead
//                          of doing work whose answer nobody will read:
//                          checked at admission (against the shard's
//                          standing queue delay), at batch-coalesce time,
//                          and before a write reaches durable group-commit.
//   0x40 kReqFlagIdem      u64 idempotency token follows (after the
//                          deadline if both flags are set); kPut/kDelete
//                          only. Retried writes that carry the same token
//                          are acked from the shard's dedup window instead
//                          of re-applying (at-least-once retry semantics).
//
// Request payloads by opcode (after the optional flag fields):
//   kGet      u64 key
//   kPut      u64 key, u64 value          (value 0xFFFF..FF is reserved)
//   kDelete   u64 key
//   kScan     u64 start_key, u32 limit    (limit <= kMaxScanLimit)
//   kMultiGet u16 count, count * u64 key  (count <= kMaxMultiGetKeys)
//
// Response payloads by status:
//   kOk for kGet          u64 value
//   kOk for kPut/kDelete  empty
//   kOk for kScan         u32 n, n * u64 value
//   kOk for kMultiGet     u16 count, count * (u8 found, u64 value)
//   kShed                 empty, or u32 retry_after_ms (the server's shed
//                         backoff hint; sent only to requests that carried
//                         any v2 flag, so v1 clients never see it)
//   kDeadlineExceeded     empty (only ever answers deadline-carrying
//                         requests, so v1 clients never see the status)
//   kNotFound/kError      empty
//
// kShed (wire value 2) was named kBusy before overload control grew
// cost-aware shedding; the wire value is unchanged.
//
// Decoding is strict: unknown tags or flags, payload sizes that do not
// match the opcode exactly, or limits above the caps are kError — the
// connection is expected to be closed, since framing can no longer be
// trusted.
#ifndef MET_SERVE_PROTOCOL_H_
#define MET_SERVE_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace met::serve {

enum class OpCode : uint8_t {
  kGet = 1,
  kPut = 2,
  kDelete = 3,
  kScan = 4,
  kMultiGet = 5,
};

enum class RespStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kShed = 2,  // shed by overload control; safe to retry (was kBusy)
  kError = 3,
  kDeadlineExceeded = 4,  // request's deadline_ms budget expired server-side
};

// Request tag-byte layout: low 6 bits opcode, high 2 bits flags.
inline constexpr uint8_t kReqOpMask = 0x3f;
inline constexpr uint8_t kReqFlagDeadline = 0x80;  // + u32 deadline_ms
inline constexpr uint8_t kReqFlagIdem = 0x40;      // + u64 idempotency token

inline constexpr size_t kFrameHeaderBytes = 4;   // the length word
inline constexpr size_t kFrameBodyMinBytes = 5;  // tag + request id
inline constexpr size_t kMaxScanLimit = 1024;
inline constexpr size_t kMaxMultiGetKeys = 256;
// Largest legal body: a max-width kOk scan response.
inline constexpr size_t kMaxFrameBytes =
    kFrameBodyMinBytes + 4 + kMaxScanLimit * 8;

/// PUT of this value is rejected (kError): it collides with the in-memory
/// engine's tombstone sentinel (HybridIndex::kTombstone).
inline constexpr uint64_t kReservedValue = ~uint64_t{0};

struct Request {
  OpCode op = OpCode::kGet;
  uint32_t id = 0;
  uint64_t key = 0;
  uint64_t value = 0;                // kPut only
  uint32_t scan_limit = 0;           // kScan only
  std::vector<uint64_t> multi_keys;  // kMultiGet only
  uint32_t deadline_ms = 0;  // 0 = none; encoded via kReqFlagDeadline
  uint64_t idem = 0;         // 0 = none; kPut/kDelete, via kReqFlagIdem
};

struct MultiGetEntry {
  bool found = false;
  uint64_t value = 0;
};

struct Response {
  RespStatus status = RespStatus::kOk;
  OpCode op = OpCode::kGet;  // which request shape the payload answers
  uint32_t id = 0;
  uint64_t value = 0;                 // kGet
  std::vector<uint64_t> scan_values;  // kScan
  std::vector<MultiGetEntry> multi;   // kMultiGet
  uint32_t retry_after_ms = 0;        // kShed backoff hint (0 = none)
};

enum class DecodeResult {
  kNeedMore,  // buffer holds no complete frame yet
  kFrame,     // one frame decoded; *consumed advanced past it
  kError,     // framing violated; close the connection
};

// ---- little-endian primitives ------------------------------------------

inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>(v >> 8));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

inline uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint8_t>(p[1]) << 8));
}

inline uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

inline uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
  return v;
}

// ---- encoding -----------------------------------------------------------

/// Appends one encoded request frame to *out. Flag fields (deadline,
/// idempotency token) are emitted only when set, so a request without them
/// is byte-identical to the v1 encoding.
inline void AppendRequest(const Request& req, std::string* out) {
  uint8_t flags = 0;
  if (req.deadline_ms != 0) flags |= kReqFlagDeadline;
  if (req.idem != 0) flags |= kReqFlagIdem;
  size_t body = kFrameBodyMinBytes;
  if (flags & kReqFlagDeadline) body += 4;
  if (flags & kReqFlagIdem) body += 8;
  switch (req.op) {
    case OpCode::kGet:
    case OpCode::kDelete: body += 8; break;
    case OpCode::kPut: body += 16; break;
    case OpCode::kScan: body += 12; break;
    case OpCode::kMultiGet: body += 2 + req.multi_keys.size() * 8; break;
  }
  PutU32(out, static_cast<uint32_t>(body));
  out->push_back(static_cast<char>(static_cast<uint8_t>(req.op) | flags));
  PutU32(out, req.id);
  if (flags & kReqFlagDeadline) PutU32(out, req.deadline_ms);
  if (flags & kReqFlagIdem) PutU64(out, req.idem);
  switch (req.op) {
    case OpCode::kGet:
    case OpCode::kDelete:
      PutU64(out, req.key);
      break;
    case OpCode::kPut:
      PutU64(out, req.key);
      PutU64(out, req.value);
      break;
    case OpCode::kScan:
      PutU64(out, req.key);
      PutU32(out, req.scan_limit);
      break;
    case OpCode::kMultiGet:
      PutU16(out, static_cast<uint16_t>(req.multi_keys.size()));
      for (uint64_t k : req.multi_keys) PutU64(out, k);
      break;
  }
}

/// Appends one encoded response frame to *out.
inline void AppendResponse(const Response& resp, std::string* out) {
  size_t body = kFrameBodyMinBytes;
  if (resp.status == RespStatus::kOk) {
    switch (resp.op) {
      case OpCode::kGet: body += 8; break;
      case OpCode::kScan: body += 4 + resp.scan_values.size() * 8; break;
      case OpCode::kMultiGet: body += 2 + resp.multi.size() * 9; break;
      case OpCode::kPut:
      case OpCode::kDelete: break;
    }
  } else if (resp.status == RespStatus::kShed && resp.retry_after_ms != 0) {
    body += 4;
  }
  PutU32(out, static_cast<uint32_t>(body));
  out->push_back(static_cast<char>(resp.status));
  PutU32(out, resp.id);
  if (resp.status != RespStatus::kOk) {
    if (resp.status == RespStatus::kShed && resp.retry_after_ms != 0)
      PutU32(out, resp.retry_after_ms);
    return;
  }
  switch (resp.op) {
    case OpCode::kGet:
      PutU64(out, resp.value);
      break;
    case OpCode::kScan:
      PutU32(out, static_cast<uint32_t>(resp.scan_values.size()));
      for (uint64_t v : resp.scan_values) PutU64(out, v);
      break;
    case OpCode::kMultiGet:
      PutU16(out, static_cast<uint16_t>(resp.multi.size()));
      for (const MultiGetEntry& e : resp.multi) {
        out->push_back(e.found ? 1 : 0);
        PutU64(out, e.value);
      }
      break;
    case OpCode::kPut:
    case OpCode::kDelete:
      break;
  }
}

// ---- decoding -----------------------------------------------------------

namespace internal {

/// Frames the next body out of buf[*pos..): validates the length word and
/// bounds, leaves *pos on the body start. Shared by both decoders.
inline DecodeResult NextBody(std::string_view buf, size_t* pos,
                             const char** body, size_t* body_len) {
  size_t avail = buf.size() - *pos;
  if (avail < kFrameHeaderBytes) return DecodeResult::kNeedMore;
  size_t len = GetU32(buf.data() + *pos);
  if (len < kFrameBodyMinBytes || len > kMaxFrameBytes)
    return DecodeResult::kError;
  if (avail < kFrameHeaderBytes + len) return DecodeResult::kNeedMore;
  *body = buf.data() + *pos + kFrameHeaderBytes;
  *body_len = len;
  *pos += kFrameHeaderBytes + len;
  return DecodeResult::kFrame;
}

}  // namespace internal

/// Decodes the next request frame starting at buf[*consumed]. On kFrame,
/// *consumed is advanced past the frame; on kNeedMore/kError it is
/// unchanged.
inline DecodeResult DecodeRequest(std::string_view buf, size_t* consumed,
                                  Request* out) {
  size_t pos = *consumed;
  const char* body = nullptr;
  size_t len = 0;
  DecodeResult r = internal::NextBody(buf, &pos, &body, &len);
  if (r != DecodeResult::kFrame) return r;
  uint8_t tag = static_cast<uint8_t>(body[0]);
  out->op = static_cast<OpCode>(tag & kReqOpMask);
  out->id = GetU32(body + 1);
  const char* payload = body + kFrameBodyMinBytes;
  size_t payload_len = len - kFrameBodyMinBytes;
  out->multi_keys.clear();
  out->deadline_ms = 0;
  out->idem = 0;
  if (tag & kReqFlagDeadline) {
    if (payload_len < 4) return DecodeResult::kError;
    out->deadline_ms = GetU32(payload);
    payload += 4;
    payload_len -= 4;
  }
  if (tag & kReqFlagIdem) {
    if (payload_len < 8) return DecodeResult::kError;
    out->idem = GetU64(payload);
    payload += 8;
    payload_len -= 8;
  }
  switch (out->op) {
    case OpCode::kGet:
    case OpCode::kDelete:
      if (payload_len != 8) return DecodeResult::kError;
      out->key = GetU64(payload);
      break;
    case OpCode::kPut:
      if (payload_len != 16) return DecodeResult::kError;
      out->key = GetU64(payload);
      out->value = GetU64(payload + 8);
      break;
    case OpCode::kScan:
      if (payload_len != 12) return DecodeResult::kError;
      out->key = GetU64(payload);
      out->scan_limit = GetU32(payload + 8);
      if (out->scan_limit > kMaxScanLimit) return DecodeResult::kError;
      break;
    case OpCode::kMultiGet: {
      if (payload_len < 2) return DecodeResult::kError;
      size_t count = GetU16(payload);
      if (count > kMaxMultiGetKeys || payload_len != 2 + count * 8)
        return DecodeResult::kError;
      out->multi_keys.resize(count);
      for (size_t i = 0; i < count; ++i)
        out->multi_keys[i] = GetU64(payload + 2 + i * 8);
      break;
    }
    default:
      return DecodeResult::kError;
  }
  *consumed = pos;
  return DecodeResult::kFrame;
}

/// Decodes the next response frame; `op` must be the opcode of the request
/// the caller is correlating by id (the payload shape depends on it —
/// callers keep an id -> opcode map of in-flight requests).
inline DecodeResult DecodeResponse(std::string_view buf, size_t* consumed,
                                   OpCode op, Response* out) {
  size_t pos = *consumed;
  const char* body = nullptr;
  size_t len = 0;
  DecodeResult r = internal::NextBody(buf, &pos, &body, &len);
  if (r != DecodeResult::kFrame) return r;
  uint8_t raw_status = static_cast<uint8_t>(body[0]);
  if (raw_status > static_cast<uint8_t>(RespStatus::kDeadlineExceeded))
    return DecodeResult::kError;
  out->status = static_cast<RespStatus>(raw_status);
  out->op = op;
  out->id = GetU32(body + 1);
  out->scan_values.clear();
  out->multi.clear();
  out->retry_after_ms = 0;
  const char* payload = body + kFrameBodyMinBytes;
  size_t payload_len = len - kFrameBodyMinBytes;
  if (out->status != RespStatus::kOk) {
    if (out->status == RespStatus::kShed && payload_len == 4) {
      out->retry_after_ms = GetU32(payload);
    } else if (payload_len != 0) {
      return DecodeResult::kError;
    }
    *consumed = pos;
    return DecodeResult::kFrame;
  }
  switch (op) {
    case OpCode::kGet:
      if (payload_len != 8) return DecodeResult::kError;
      out->value = GetU64(payload);
      break;
    case OpCode::kPut:
    case OpCode::kDelete:
      if (payload_len != 0) return DecodeResult::kError;
      break;
    case OpCode::kScan: {
      if (payload_len < 4) return DecodeResult::kError;
      size_t n = GetU32(payload);
      if (n > kMaxScanLimit || payload_len != 4 + n * 8)
        return DecodeResult::kError;
      out->scan_values.resize(n);
      for (size_t i = 0; i < n; ++i)
        out->scan_values[i] = GetU64(payload + 4 + i * 8);
      break;
    }
    case OpCode::kMultiGet: {
      if (payload_len < 2) return DecodeResult::kError;
      size_t n = GetU16(payload);
      if (n > kMaxMultiGetKeys || payload_len != 2 + n * 9)
        return DecodeResult::kError;
      out->multi.resize(n);
      for (size_t i = 0; i < n; ++i) {
        out->multi[i].found = payload[2 + i * 9] != 0;
        out->multi[i].value = GetU64(payload + 2 + i * 9 + 1);
      }
      break;
    }
    default:
      return DecodeResult::kError;
  }
  *consumed = pos;
  return DecodeResult::kFrame;
}

}  // namespace met::serve

#endif  // MET_SERVE_PROTOCOL_H_
