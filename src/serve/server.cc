#include "serve/server.h"

#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/assert.h"
#include "common/hash.h"
#include "common/sync.h"
#include "common/timer.h"
#include "guard/admission.h"
#include "guard/clock.h"
#include "guard/dedup.h"
#include "guard/metrics.h"
#include "hybrid/hybrid.h"
#include "lsm/lsm.h"
#include "serve/net.h"
#include "serve/protocol.h"

namespace met::serve {

const ServeObsMetrics& ServeObsMetrics::Get() {
  static const ServeObsMetrics m = [] {
    auto& reg = obs::MetricsRegistry::Global();
    ServeObsMetrics x;
    x.accepted = reg.GetCounter("met.serve.conns_accepted");
    x.closed = reg.GetCounter("met.serve.conns_closed");
    x.requests = reg.GetCounter("met.serve.requests");
    x.proto_errors = reg.GetCounter("met.serve.proto_errors");
    x.queue_depth = reg.GetHistogram("met.serve.queue_depth");
    return x;
  }();
  return m;
}

// ---- engines -------------------------------------------------------------

namespace {

/// The in-memory engine: the hybrid B+tree in non-unique mode, so Insert is
/// insert-or-assign — exactly PUT's upsert. The shard thread owns it and
/// makes every call; merges drain on a background thread and are adopted
/// at the top of the shard thread's next call.
class MemoryEngine final : public ShardEngine {
 public:
  MemoryEngine() : index_(Config()) {}

  bool Get(uint64_t key, uint64_t* value) override {
    return index_.Lookup(key, value);
  }
  bool Put(uint64_t key, uint64_t value) override {
    return index_.Insert(key, value);
  }
  bool Delete(uint64_t key) override { return index_.Erase(key); }
  size_t Scan(uint64_t start, size_t limit,
              std::vector<uint64_t>* out) override {
    out->clear();
    return index_.Scan(start, limit, out);
  }

 private:
  static HybridConfig Config() {
    HybridConfig c;
    c.unique = false;
    c.background_merge = true;
    return c;
  }

  HybridBTree<uint64_t> index_;
};

/// 8-byte big-endian key so LSM lexicographic order == numeric order.
std::string BeKey(uint64_t key) {
  std::string s(8, '\0');
  for (int i = 0; i < 8; ++i) s[i] = static_cast<char>(key >> (8 * (7 - i)));
  return s;
}

class DurableEngine final : public ShardEngine {
 public:
  explicit DurableEngine(std::unique_ptr<LsmTree> lsm) : lsm_(std::move(lsm)) {}

  bool Get(uint64_t key, uint64_t* value) override {
    std::string v;
    if (!lsm_->Lookup(BeKey(key), &v)) return false;
    // Empty value is this engine's tombstone (LsmTree has no native delete);
    // it shadows older versions in lower levels like any newer write.
    if (v.empty()) return false;
    if (value != nullptr) *value = GetU64(v.data());
    return true;
  }

  bool Put(uint64_t key, uint64_t value) override {
    std::string v(8, '\0');
    for (int i = 0; i < 8; ++i) v[i] = static_cast<char>(value >> (8 * i));
    return lsm_->Put(BeKey(key), v).ok();
  }

  bool Delete(uint64_t key) override {
    if (!Get(key, nullptr)) return false;
    return lsm_->Put(BeKey(key), std::string()).ok();
  }

  size_t Scan(uint64_t start, size_t limit,
              std::vector<uint64_t>* out) override {
    out->clear();
    if (limit == 0) return 0;
    lsm_->Scan(BeKey(start), [&](std::string_view, std::string_view v) {
      if (!v.empty()) out->push_back(GetU64(v.data()));  // skip tombstones
      return out->size() < limit;
    });
    return out->size();
  }

  bool SyncWrites() override { return lsm_->SyncWal().ok(); }

 private:
  std::unique_ptr<LsmTree> lsm_;
};

}  // namespace

std::unique_ptr<ShardEngine> NewMemoryEngine() {
  return std::make_unique<MemoryEngine>();
}

std::unique_ptr<ShardEngine> NewDurableEngine(const std::string& dir,
                                              io::Env* env,
                                              io::Status* status) {
  LsmOptions o;
  o.dir = dir;
  o.env = env;
  o.durable = true;
  io::Status st;
  std::unique_ptr<LsmTree> lsm = LsmTree::Open(std::move(o), &st);
  if (status != nullptr) *status = st;
  // Open returns a (possibly degraded) tree even on failed recovery; a
  // serving shard refuses to start on one — degraded durability is silent
  // data loss under the zero-lost-acked-PUTs contract.
  if (!st.ok()) return nullptr;
  return std::make_unique<DurableEngine>(std::move(lsm));
}

// ---- server impl ---------------------------------------------------------

namespace {

/// epoll user-data tag for the shard's eventfd (connections use slot|gen).
constexpr uint64_t kEventFdTag = ~uint64_t{0};

uint64_t ConnTag(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) | slot;
}

/// One routed unit of shard work. MULTIGET is decomposed into one item per
/// key (op == kMultiGet, multi_index set), each executed by the key's
/// shard like a plain GET.
struct WorkItem {
  uint32_t owner = 0;  // shard thread owning the connection
  uint32_t slot = 0;
  uint32_t gen = 0;
  OpCode op = OpCode::kGet;
  uint32_t id = 0;
  uint64_t key = 0;
  uint64_t value = 0;        // kPut
  uint32_t scan_limit = 0;   // kScan
  uint16_t multi_index = 0;  // kMultiGet: slot within the assembly
  uint32_t cost = 1;         // guard cost units charged to the target shard
  uint64_t enqueue_ns = 0;   // admission time (queue-delay sample)
  uint64_t deadline_ns = 0;  // absolute monotonic deadline; 0 = none
  uint64_t idem = 0;         // idempotency token; 0 = none
};

/// Execution result routed back to the connection owner. A multiget
/// sub-read fills one assembly slot; everything else is a pre-encoded
/// response frame.
struct Completion {
  uint32_t slot = 0;
  uint32_t gen = 0;
  bool multi_part = false;
  bool deadline = false;  // multi part expired server-side
  uint32_t id = 0;
  uint16_t multi_index = 0;
  bool found = false;
  uint64_t value = 0;
  std::string frame;
};

struct MultiAssembly {
  uint32_t remaining = 0;
  bool deadline_exceeded = false;  // any sub-read expired: whole op expired
  std::vector<MultiGetEntry> entries;
};

struct Conn {
  int fd = -1;
  std::string rbuf;
  size_t rpos = 0;
  std::string wbuf;
  size_t wpos = 0;
  bool want_write = false;   // EPOLLOUT armed
  bool paused = false;       // write backlog past high water: not reading
  bool read_closed = false;  // peer EOF; close once responses drain
  bool flush_pending = false;
  uint32_t inflight = 0;  // admitted items not yet answered
  std::unordered_map<uint32_t, MultiAssembly> assemblies;
};

/// A write whose ack is held until the chunk's group commit.
struct PendingAck {
  WorkItem item;
  bool applied = false;
  /// Replayed from the dedup window: the recorded outcome stands even if
  /// this chunk's sync fails — the original write already committed.
  bool dedup_hit = false;
};

struct Shard {
  size_t id = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::unique_ptr<ShardEngine> engine;
  std::thread thread;

  // ---- cross-thread mailboxes (one lock per hand-off batch) ----
  sync::Mutex mu;
  std::vector<int> pending_conns MET_GUARDED_BY(mu);
  std::vector<WorkItem> inbox MET_GUARDED_BY(mu);
  std::vector<Completion> done MET_GUARDED_BY(mu);
  /// Cost-aware admission control over inbox + run_queue. Admit/OnEnqueue
  /// are called lock-free by connection-owning threads; OnDequeue (the
  /// CoDel delay sampling) only by this shard's thread. The queued-cost
  /// bound is approximate by a hand-off batch at worst, same as the old
  /// request-count bound.
  std::unique_ptr<guard::AdmissionController> admission;
  /// Idempotency window for tokened writes; this shard's thread only.
  std::unique_ptr<guard::DedupWindow> dedup;

  // ---- owner-thread-only state ----
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<uint32_t> slot_gen;
  std::vector<uint32_t> free_slots;
  std::deque<WorkItem> run_queue;
  std::vector<uint32_t> flush_list;   // conns with freshly appended bytes
  std::vector<uint32_t> resume_list;  // conns unpaused since last iteration
  bool reads_stopped = false;
  bool exec_drained = false;

  // ---- owner-thread scratch, reused across iterations ----
  std::vector<std::vector<WorkItem>> route_scratch;      // per target shard
  std::vector<std::vector<Completion>> out_completions;  // per owner shard
  std::vector<PendingAck> write_acks;
  std::vector<uint64_t> scan_scratch;
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions o) : opts(std::move(o)) {}

  ServerOptions opts;
  const ServeObsMetrics& metrics = ServeObsMetrics::Get();
  const guard::GuardObsMetrics& gmetrics = guard::GuardObsMetrics::Get();
  int listen_fd = -1;
  uint16_t port = 0;
  std::vector<std::unique_ptr<Shard>> shards;
  std::thread acceptor;
  bool started = false;
  sync::Atomic<bool> stopping{false};
  sync::Atomic<bool> shut_down{false};
  sync::Atomic<size_t> reads_stopped_count{0};
  sync::Atomic<size_t> exec_drained_count{0};

  size_t ShardOf(uint64_t key) const { return MixHash64(key) % shards.size(); }

  void Wake(Shard* s) {
    uint64_t one = 1;
    ssize_t wrote = write(s->event_fd, &one, sizeof(one));
    (void)wrote;  // failure = counter overflow = a wakeup is already pending
  }

  // ---- connection lifecycle (owner thread) ----

  void UpdateEpollMask(Shard* s, uint32_t slot) {
    Conn* c = s->conns[slot].get();
    epoll_event ev{};
    ev.events = 0;
    if (!c->paused && !s->reads_stopped && !c->read_closed)
      ev.events |= EPOLLIN;
    if (c->want_write) ev.events |= EPOLLOUT;
    ev.data.u64 = ConnTag(slot, s->slot_gen[slot]);
    MET_ASSERT(epoll_ctl(s->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev) == 0);
  }

  void RegisterConn(Shard* s, int fd) {
    if (stopping.load(std::memory_order_acquire)) {
      CloseFd(fd);
      return;
    }
    uint32_t slot;
    if (!s->free_slots.empty()) {
      slot = s->free_slots.back();
      s->free_slots.pop_back();
      s->conns[slot] = std::make_unique<Conn>();
    } else {
      slot = static_cast<uint32_t>(s->conns.size());
      s->conns.push_back(std::make_unique<Conn>());
      s->slot_gen.push_back(1);
    }
    Conn* c = s->conns[slot].get();
    c->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = ConnTag(slot, s->slot_gen[slot]);
    if (epoll_ctl(s->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseFd(fd);
      s->conns[slot].reset();
      ++s->slot_gen[slot];
      s->free_slots.push_back(slot);
    }
  }

  void CloseConn(Shard* s, uint32_t slot) {
    Conn* c = s->conns[slot].get();
    if (c == nullptr) return;
    // Not registered anymore once the fd closes; kernel drops the epoll
    // entry with the last fd reference.
    CloseFd(c->fd);
    metrics.closed->Increment();
    ++s->slot_gen[slot];  // stale completions for this slot now drop
    s->conns[slot].reset();
    s->free_slots.push_back(slot);
  }

  /// A read-closed connection dies once every admitted request has been
  /// answered and the answer bytes have left.
  void MaybeFinishClose(Shard* s, uint32_t slot) {
    Conn* c = s->conns[slot].get();
    if (c == nullptr || !c->read_closed) return;
    if (c->inflight == 0 && c->wpos == c->wbuf.size()) CloseConn(s, slot);
  }

  void MarkFlush(Shard* s, uint32_t slot) {
    Conn* c = s->conns[slot].get();
    if (c == nullptr || c->flush_pending) return;
    c->flush_pending = true;
    s->flush_list.push_back(slot);
  }

  void FlushConn(Shard* s, uint32_t slot) {
    Conn* c = s->conns[slot].get();
    if (c == nullptr) return;
    if (c->wpos < c->wbuf.size()) {
      size_t written = 0;
      bool would_block = false;
      io::Status st =
          WriteSome(c->fd, std::string_view(c->wbuf).substr(c->wpos),
                    &written, &would_block);
      if (!st.ok()) {
        CloseConn(s, slot);
        return;
      }
      c->wpos += written;
    }
    size_t backlog = c->wbuf.size() - c->wpos;
    if (backlog == 0) {
      c->wbuf.clear();
      c->wpos = 0;
      bool mask_dirty = c->want_write;
      c->want_write = false;
      if (c->paused) {
        c->paused = false;
        mask_dirty = true;
        s->resume_list.push_back(slot);  // decode what buffered while paused
      }
      if (mask_dirty) UpdateEpollMask(s, slot);
      MaybeFinishClose(s, slot);
      return;
    }
    bool mask_dirty = !c->want_write;
    c->want_write = true;
    if (backlog > opts.conn_write_buffer_limit && !c->paused) {
      c->paused = true;  // stop reading until the peer drains us
      mask_dirty = true;
    }
    if (mask_dirty) UpdateEpollMask(s, slot);
  }

  void FlushPendingConns(Shard* s) {
    for (uint32_t slot : s->flush_list) {
      Conn* c = s->conns[slot].get();
      if (c != nullptr && c->flush_pending) {
        c->flush_pending = false;
        FlushConn(s, slot);
      }
    }
    s->flush_list.clear();
  }

  // ---- request routing (owner thread) ----

  void RespondNow(Shard* s, uint32_t slot, const Response& resp) {
    Conn* c = s->conns[slot].get();
    AppendResponse(resp, &c->wbuf);
    MarkFlush(s, slot);
  }

  static uint32_t CostOf(const Request& req) {
    switch (req.op) {
      case OpCode::kGet: return guard::kCostGet;
      case OpCode::kPut:
      case OpCode::kDelete: return guard::kCostWrite;
      case OpCode::kScan: return guard::CostScan(req.scan_limit);
      case OpCode::kMultiGet: return guard::CostMultiGet(req.multi_keys.size());
    }
    return guard::kCostGet;
  }

  void Enqueue(Shard* s, size_t target, const WorkItem& item) {
    shards[target]->admission->OnEnqueue(item.cost);
    s->route_scratch[target].push_back(item);
    ++s->conns[item.slot]->inflight;
  }

  /// Shed response: kShed, with the retry-after hint for guard-aware (v2)
  /// requests only — a v1 client's decoder expects empty non-OK payloads.
  void RespondShed(Shard* s, uint32_t slot, Response* err, bool v2,
                   uint32_t retry_after_ms, uint32_t request_cost) {
    gmetrics.shed->Increment();
    gmetrics.shed_cost->Add(request_cost);
    err->status = RespStatus::kShed;
    if (v2) err->retry_after_ms = retry_after_ms == 0 ? 1 : retry_after_ms;
    RespondNow(s, slot, *err);
  }

  void RouteRequest(Shard* s, uint32_t slot, const Request& req) {
    metrics.requests->Increment();
    Response err;
    err.id = req.id;
    err.op = req.op;
    const bool v2 = req.deadline_ms != 0 || req.idem != 0;
    const uint32_t request_cost = CostOf(req);
    const uint64_t now_ns = guard::MonotonicNanos();
    const uint64_t budget_ns =
        uint64_t{req.deadline_ms} * guard::kNanosPerMilli;
    WorkItem item;
    item.owner = static_cast<uint32_t>(s->id);
    item.slot = slot;
    item.gen = s->slot_gen[slot];
    item.op = req.op;
    item.id = req.id;
    item.key = req.key;
    item.value = req.value;
    item.scan_limit = req.scan_limit;
    item.cost = request_cost;
    item.enqueue_ns = now_ns;
    item.deadline_ns = budget_ns == 0 ? 0 : now_ns + budget_ns;
    if (req.op == OpCode::kPut || req.op == OpCode::kDelete)
      item.idem = req.idem;

    if (req.op == OpCode::kMultiGet) {
      if (req.multi_keys.empty()) {
        err.status = RespStatus::kOk;
        RespondNow(s, slot, err);
        return;
      }
      // Admit all sub-reads or none: a partially-shed multiget could never
      // assemble a complete response. Each sub-read charges only its own
      // shard (kCostGet), but shedding classifies on the whole request's
      // cost — a 256-key multiget is heavy even though each piece is cheap.
      for (uint64_t k : req.multi_keys) {
        guard::AdmissionController* ctrl =
            shards[ShardOf(k)]->admission.get();
        uint32_t retry_after_ms = 0;
        if (ctrl->Admit(guard::kCostGet, request_cost, &retry_after_ms) !=
            guard::AdmissionController::Decision::kAdmit) {
          RespondShed(s, slot, &err, v2, retry_after_ms, request_cost);
          return;
        }
        if (budget_ns != 0 && ctrl->EstimatedDelayNs() > budget_ns) {
          gmetrics.deadline_admission->Increment();
          err.status = RespStatus::kDeadlineExceeded;
          RespondNow(s, slot, err);
          return;
        }
      }
      Conn* c = s->conns[slot].get();
      MultiAssembly& asmb = c->assemblies[req.id];  // client id reuse: clobber
      asmb.remaining = static_cast<uint32_t>(req.multi_keys.size());
      asmb.deadline_exceeded = false;
      asmb.entries.assign(req.multi_keys.size(), MultiGetEntry{});
      item.cost = guard::kCostGet;
      for (size_t i = 0; i < req.multi_keys.size(); ++i) {
        item.key = req.multi_keys[i];
        item.multi_index = static_cast<uint16_t>(i);
        Enqueue(s, ShardOf(item.key), item);
      }
      return;
    }

    if (req.op == OpCode::kPut && req.value == kReservedValue) {
      err.status = RespStatus::kError;
      RespondNow(s, slot, err);
      return;
    }
    Shard* target = shards[ShardOf(req.key)].get();
    uint32_t retry_after_ms = 0;
    if (target->admission->Admit(request_cost, request_cost,
                                 &retry_after_ms) !=
        guard::AdmissionController::Decision::kAdmit) {
      RespondShed(s, slot, &err, v2, retry_after_ms, request_cost);
      return;
    }
    // Deadline check at admission: if the target's standing queue delay
    // already exceeds the whole budget, queueing is dead work.
    if (budget_ns != 0 && target->admission->EstimatedDelayNs() > budget_ns) {
      gmetrics.deadline_admission->Increment();
      err.status = RespStatus::kDeadlineExceeded;
      RespondNow(s, slot, err);
      return;
    }
    Enqueue(s, target->id, item);
  }

  /// Hands this burst's routed items to their target shards: self-owned
  /// items go straight to the run queue, cross-shard batches take the
  /// target's lock once.
  void FlushRoutes(Shard* s) {
    for (size_t t = 0; t < shards.size(); ++t) {
      std::vector<WorkItem>& batch = s->route_scratch[t];
      if (batch.empty()) continue;
      if (t == s->id) {
        s->run_queue.insert(s->run_queue.end(), batch.begin(), batch.end());
      } else {
        Shard* dst = shards[t].get();
        {
          sync::MutexLock l(dst->mu);
          dst->inbox.insert(dst->inbox.end(), batch.begin(), batch.end());
        }
        Wake(dst);
      }
      batch.clear();
    }
  }

  void HandleReadable(Shard* s, uint32_t slot) {
    for (;;) {
      Conn* c = s->conns[slot].get();
      if (c == nullptr || c->paused || s->reads_stopped) break;
      bool eof = false;
      bool would_block = false;
      io::Status st = ReadSome(c->fd, &c->rbuf, &eof, &would_block);
      if (!st.ok()) {
        CloseConn(s, slot);
        break;
      }
      bool closed = false;
      while (!c->paused) {
        Request req;
        size_t consumed = c->rpos;
        DecodeResult r = DecodeRequest(c->rbuf, &consumed, &req);
        if (r == DecodeResult::kNeedMore) break;
        if (r == DecodeResult::kError) {
          metrics.proto_errors->Increment();
          CloseConn(s, slot);
          closed = true;
          break;
        }
        c->rpos = consumed;
        RouteRequest(s, slot, req);
      }
      if (closed) break;
      if (c->rpos == c->rbuf.size() || c->rpos >= 256 * 1024) {
        c->rbuf.erase(0, c->rpos);
        c->rpos = 0;
      }
      if (eof) {
        c->read_closed = true;
        UpdateEpollMask(s, slot);
        MaybeFinishClose(s, slot);
        break;
      }
      if (would_block || c->paused) break;
    }
    FlushRoutes(s);
  }

  // ---- execution (target-shard thread) ----

  void EmitCompletion(Shard* s, uint32_t owner, Completion&& c) {
    s->out_completions[owner].push_back(std::move(c));
  }

  void EmitFrame(Shard* s, const WorkItem& item, const Response& resp) {
    Completion c;
    c.slot = item.slot;
    c.gen = item.gen;
    AppendResponse(resp, &c.frame);
    EmitCompletion(s, item.owner, std::move(c));
  }

  /// A MULTIGET sub-read's assembly part, to be filled by the caller.
  static Completion MultiPart(const WorkItem& item) {
    Completion c;
    c.slot = item.slot;
    c.gen = item.gen;
    c.multi_part = true;
    c.id = item.id;
    c.multi_index = item.multi_index;
    return c;
  }

  /// Serves one point read where it is dequeued: a response frame for a
  /// GET, an assembly part for a MULTIGET sub-read.
  void ExecuteRead(Shard* s, const WorkItem& item) {
    uint64_t value = 0;
    const bool found = s->engine->Get(item.key, &value);
    if (item.op == OpCode::kMultiGet) {
      Completion c = MultiPart(item);
      c.found = found;
      c.value = value;
      EmitCompletion(s, item.owner, std::move(c));
      return;
    }
    Response resp;
    resp.status = found ? RespStatus::kOk : RespStatus::kNotFound;
    resp.op = OpCode::kGet;
    resp.id = item.id;
    resp.value = value;
    EmitFrame(s, item, resp);
  }

  /// Answers an expired queued request with kDeadlineExceeded: a plain
  /// frame, or a flagged assembly part for a MULTIGET sub-read.
  void ExpireItem(Shard* s, const WorkItem& item) {
    gmetrics.deadline_exec->Increment();
    if (item.op == OpCode::kMultiGet) {
      Completion c = MultiPart(item);
      c.deadline = true;
      EmitCompletion(s, item.owner, std::move(c));
      return;
    }
    Response resp;
    resp.status = RespStatus::kDeadlineExceeded;
    resp.op = item.op;
    resp.id = item.id;
    EmitFrame(s, item, resp);
  }

  void ExecuteChunk(Shard* s) {
    const size_t chunk = s->run_queue.size();
    metrics.queue_depth->Record(chunk);
    bool dirty = false;
    s->write_acks.clear();
    for (size_t i = 0; i < chunk; ++i) {
      WorkItem item = s->run_queue.front();
      s->run_queue.pop_front();
      // Dequeue accounting: release the item's cost and feed its queueing
      // delay to the CoDel state — expired items included, they queued too.
      const uint64_t now_ns = guard::MonotonicNanos();
      const uint64_t delay_ns =
          now_ns > item.enqueue_ns ? now_ns - item.enqueue_ns : 0;
      s->admission->OnDequeue(item.cost, delay_ns, now_ns);
      gmetrics.queue_delay_us->Record(delay_ns / 1000);
      // Deadline check at dequeue: an expired request never reaches the
      // engine, and an expired write never reaches the group commit below.
      if (item.deadline_ns != 0 && now_ns > item.deadline_ns) {
        ExpireItem(s, item);
        continue;
      }
      // Every item runs here, in arrival order: a read queued before a
      // write sees the old value, one queued after it the new one.
      switch (item.op) {
        case OpCode::kGet:
        case OpCode::kMultiGet:
          ExecuteRead(s, item);
          break;
        case OpCode::kPut:
        case OpCode::kDelete: {
          PendingAck ack;
          ack.item = item;
          if (const bool* prior = s->dedup->Find(item.idem);
              prior != nullptr) {
            // Retried tokened write: replay the recorded outcome, never
            // re-apply (at-least-once becomes effectively-once).
            gmetrics.dedup_hits->Increment();
            ack.applied = *prior;
            ack.dedup_hit = true;
          } else if (item.op == OpCode::kPut) {
            ack.applied = s->engine->Put(item.key, item.value);
            dirty = true;
          } else {
            ack.applied = s->engine->Delete(item.key);
            dirty = true;
          }
          s->write_acks.push_back(std::move(ack));
          break;
        }
        case OpCode::kScan: {
          s->engine->Scan(item.key, item.scan_limit, &s->scan_scratch);
          Response resp;
          resp.status = RespStatus::kOk;
          resp.op = OpCode::kScan;
          resp.id = item.id;
          resp.scan_values = s->scan_scratch;
          EmitFrame(s, item, resp);
          break;
        }
      }
    }
    gmetrics.overload_level->Set(s->admission->overload_level());
    gmetrics.queued_cost->Set(
        static_cast<int64_t>(s->admission->queued_cost()));

    // Group commit: one durability barrier covers every write in the chunk;
    // no ack is released before its bytes are on disk.
    bool sync_ok = true;
    if (dirty) sync_ok = s->engine->SyncWrites();
    for (const PendingAck& ack : s->write_acks) {
      Response resp;
      resp.op = ack.item.op;
      resp.id = ack.item.id;
      if (ack.dedup_hit) {
        // The original write already group-committed; its outcome stands
        // regardless of this chunk's sync.
        resp.status = ack.applied         ? RespStatus::kOk
                      : ack.item.op == OpCode::kPut ? RespStatus::kError
                                                    : RespStatus::kNotFound;
      } else if (!sync_ok) {
        resp.status = RespStatus::kError;
      } else if (ack.item.op == OpCode::kPut) {
        resp.status = ack.applied ? RespStatus::kOk : RespStatus::kError;
      } else {
        resp.status = ack.applied ? RespStatus::kOk : RespStatus::kNotFound;
      }
      // Record tokened outcomes only after a successful sync: a dedup hit
      // must never ack a write that is not actually durable.
      if (!ack.dedup_hit && sync_ok && ack.item.idem != 0)
        s->dedup->Insert(ack.item.idem, ack.applied);
      EmitFrame(s, ack.item, resp);
    }
    DispatchCompletions(s);
  }

  void DispatchCompletions(Shard* s) {
    for (size_t o = 0; o < shards.size(); ++o) {
      std::vector<Completion>& batch = s->out_completions[o];
      if (batch.empty()) continue;
      if (o == s->id) {
        for (Completion& c : batch) ApplyCompletion(s, std::move(c));
      } else {
        Shard* dst = shards[o].get();
        {
          sync::MutexLock l(dst->mu);
          for (Completion& c : batch) dst->done.push_back(std::move(c));
        }
        Wake(dst);
      }
      batch.clear();
    }
  }

  // ---- completion application (owner thread) ----

  void ApplyCompletion(Shard* s, Completion&& c) {
    if (c.slot >= s->conns.size()) return;
    Conn* conn = s->conns[c.slot].get();
    if (conn == nullptr || s->slot_gen[c.slot] != c.gen) return;  // conn died
    if (conn->inflight > 0) --conn->inflight;
    if (c.multi_part) {
      auto it = conn->assemblies.find(c.id);
      if (it == conn->assemblies.end()) return;
      MultiAssembly& asmb = it->second;
      if (c.deadline) asmb.deadline_exceeded = true;
      if (c.multi_index < asmb.entries.size()) {
        asmb.entries[c.multi_index].found = c.found;
        asmb.entries[c.multi_index].value = c.value;
      }
      if (--asmb.remaining == 0) {
        Response resp;
        // One expired sub-read expires the whole op: a partial multiget
        // result would be indistinguishable from a complete one.
        resp.status = asmb.deadline_exceeded ? RespStatus::kDeadlineExceeded
                                             : RespStatus::kOk;
        resp.op = OpCode::kMultiGet;
        resp.id = c.id;
        if (!asmb.deadline_exceeded) resp.multi = std::move(asmb.entries);
        conn->assemblies.erase(it);
        AppendResponse(resp, &conn->wbuf);
        MarkFlush(s, c.slot);
      }
    } else {
      conn->wbuf.append(c.frame);
      MarkFlush(s, c.slot);
    }
  }

  // ---- threads -------------------------------------------------------

  void AcceptorLoop() {
    size_t next = 0;
    while (!stopping.load(std::memory_order_acquire)) {
      pollfd p{};
      p.fd = listen_fd;
      p.events = POLLIN;
      int n = poll(&p, 1, /*timeout_ms=*/50);
      if (n < 0 && errno != EINTR) break;
      if (n <= 0) continue;
      for (;;) {
        int fd = -1;
        io::Status st = AcceptConn(listen_fd, &fd);
        if (!st.ok() || fd < 0) break;
        metrics.accepted->Increment();
        Shard* s = shards[next % shards.size()].get();
        ++next;
        {
          sync::MutexLock l(s->mu);
          s->pending_conns.push_back(fd);
        }
        Wake(s);
      }
    }
  }

  void PullMailboxes(Shard* s, std::vector<int>* new_conns,
                     std::vector<WorkItem>* pulled,
                     std::vector<Completion>* completions) {
    sync::MutexLock l(s->mu);
    new_conns->swap(s->pending_conns);
    if (!s->inbox.empty()) {
      pulled->insert(pulled->end(), s->inbox.begin(), s->inbox.end());
      s->inbox.clear();
    }
    completions->swap(s->done);
  }

  void ShardLoop(Shard* s) {
    std::vector<epoll_event> events(128);
    std::vector<int> new_conns;
    std::vector<WorkItem> pulled;
    std::vector<Completion> completions;
    met::Timer drain_timer;
    bool draining = false;
    for (;;) {
      bool stop = stopping.load(std::memory_order_acquire);
      if (stop && !s->reads_stopped) {
        s->reads_stopped = true;
        reads_stopped_count.fetch_add(1, std::memory_order_acq_rel);
        drain_timer.Reset();
        draining = true;
        for (uint32_t slot = 0; slot < s->conns.size(); ++slot)
          if (s->conns[slot] != nullptr) UpdateEpollMask(s, slot);
      }
      int timeout = -1;
      if (!s->run_queue.empty() || !s->resume_list.empty())
        timeout = 0;
      else if (stop)
        timeout = 10;
      int n = epoll_wait(s->epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout);
      if (n < 0) n = 0;  // EINTR: fall through, mailboxes still get pulled

      // Drain the eventfd BEFORE pulling the mailboxes. A producer pushes
      // then signals; draining after the pull could clear a signal whose
      // push we had already consumed while a second push slipped in between
      // — leaving work in the inbox with no pending wakeup (lost wakeup,
      // epoll_wait(-1) blocks forever).
      uint64_t drained = 0;
      ssize_t got = read(s->event_fd, &drained, sizeof(drained));
      (void)got;  // EAGAIN just means nothing was signaled

      new_conns.clear();
      pulled.clear();
      completions.clear();
      PullMailboxes(s, &new_conns, &pulled, &completions);
      for (int fd : new_conns) RegisterConn(s, fd);
      s->run_queue.insert(s->run_queue.end(), pulled.begin(), pulled.end());

      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        if (tag == kEventFdTag) continue;  // drained above, before the pull
        uint32_t slot = static_cast<uint32_t>(tag & 0xffffffffu);
        uint32_t gen = static_cast<uint32_t>(tag >> 32);
        if (slot >= s->conns.size() || s->conns[slot] == nullptr ||
            s->slot_gen[slot] != gen)
          continue;  // stale event for a closed/reused slot
        uint32_t ev = events[i].events;
        if ((ev & (EPOLLHUP | EPOLLERR)) != 0 &&
            (ev & (EPOLLIN | EPOLLOUT)) == 0) {
          CloseConn(s, slot);
          continue;
        }
        if ((ev & EPOLLIN) != 0) HandleReadable(s, slot);
        if ((ev & EPOLLOUT) != 0 && s->conns[slot] != nullptr)
          FlushConn(s, slot);
      }

      if (!s->resume_list.empty()) {
        // Conns unpaused by a drained write buffer: decode what piled up.
        std::vector<uint32_t> resume;
        resume.swap(s->resume_list);
        for (uint32_t slot : resume)
          if (s->conns[slot] != nullptr) HandleReadable(s, slot);
      }

      for (Completion& c : completions) ApplyCompletion(s, std::move(c));
      if (!s->run_queue.empty()) ExecuteChunk(s);
      FlushPendingConns(s);

      if (!stop) continue;

      // ---- graceful drain ----
      // Phase 1: every shard stops reading (reads_stopped_count barrier), so
      // inboxes can only shrink from here. Phase 2: a shard with empty
      // queues is exec-drained — sticky, because no new work can appear.
      // Phase 3: once all shards are exec-drained, exit when the remaining
      // completions have been applied and every response byte has left.
      if (!s->exec_drained &&
          reads_stopped_count.load(std::memory_order_acquire) ==
              shards.size()) {
        bool inbox_empty;
        {
          sync::MutexLock l(s->mu);
          inbox_empty = s->inbox.empty();
        }
        if (inbox_empty && s->run_queue.empty()) {
          s->exec_drained = true;
          exec_drained_count.fetch_add(1, std::memory_order_acq_rel);
        }
      }
      bool force = draining && drain_timer.ElapsedSeconds() > 5.0;
      if (s->exec_drained &&
          exec_drained_count.load(std::memory_order_acquire) ==
              shards.size()) {
        bool done_empty;
        {
          sync::MutexLock l(s->mu);
          done_empty = s->done.empty();
        }
        bool flushed = true;
        for (const auto& c : s->conns)
          if (c != nullptr && c->wpos < c->wbuf.size()) flushed = false;
        if ((done_empty && flushed) || force) break;
      } else if (force) {
        break;  // a peer wedged mid-drain; don't hang Shutdown forever
      }
    }
    for (uint32_t slot = 0; slot < s->conns.size(); ++slot)
      if (s->conns[slot] != nullptr) CloseConn(s, slot);
  }

  io::Status Start() {
    MET_ASSERT(!started);
    size_t n = opts.num_shards;
    if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
    io::Status st = OpenListener(opts.port, &listen_fd, &port);
    if (!st.ok()) return st;

    io::Env* env = opts.env != nullptr ? opts.env : &io::Env::Posix();
    if (opts.durable && !opts.engine_factory) {
      if (io::Status mk = env->MkDir(opts.dir); !mk.ok()) {
        CloseFd(listen_fd);
        listen_fd = -1;
        return mk;
      }
    }
    shards.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto s = std::make_unique<Shard>();
      s->id = i;
      if (opts.engine_factory) {
        s->engine = opts.engine_factory(i);
      } else if (opts.durable) {
        io::Status open_st;
        s->engine = NewDurableEngine(opts.dir + "/shard-" + std::to_string(i),
                                     env, &open_st);
        if (s->engine == nullptr) {
          TearDownFds();
          return open_st;
        }
      } else {
        s->engine = NewMemoryEngine();
      }
      MET_ASSERT(s->engine != nullptr);
      guard::AdmissionOptions ao;
      ao.cost_capacity = opts.queue_capacity;
      ao.delay_target_ns = opts.delay_target_us * 1000;
      ao.interval_ns = opts.delay_interval_us * 1000;
      s->admission = std::make_unique<guard::AdmissionController>(ao);
      s->dedup = std::make_unique<guard::DedupWindow>(opts.dedup_window);
      s->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
      s->event_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      TrackFd(s->epoll_fd);
      TrackFd(s->event_fd);
      if (s->epoll_fd < 0 || s->event_fd < 0) {
        TearDownFds();
        return io::Status::IoError("epoll/eventfd setup failed", errno);
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kEventFdTag;
      MET_ASSERT(epoll_ctl(s->epoll_fd, EPOLL_CTL_ADD, s->event_fd, &ev) == 0);
      s->route_scratch.resize(n);
      s->out_completions.resize(n);
      shards.push_back(std::move(s));
    }
    for (auto& s : shards)
      s->thread = std::thread([this, sp = s.get()] { ShardLoop(sp); });
    acceptor = std::thread([this] { AcceptorLoop(); });
    started = true;
    return io::Status::OK();
  }

  void TearDownFds() {
    if (listen_fd >= 0) {
      CloseFd(listen_fd);
      listen_fd = -1;
    }
    for (auto& s : shards) {
      if (s->epoll_fd >= 0) CloseFd(s->epoll_fd);
      if (s->event_fd >= 0) CloseFd(s->event_fd);
    }
    shards.clear();
  }

  void Shutdown() {
    if (!started) return;
    bool expected = false;
    if (!shut_down.compare_exchange_strong(expected, true)) return;
    stopping.store(true, std::memory_order_release);
    for (auto& s : shards) Wake(s.get());
    if (acceptor.joinable()) acceptor.join();
    CloseFd(listen_fd);
    listen_fd = -1;
    for (auto& s : shards)
      if (s->thread.joinable()) s->thread.join();
    for (auto& s : shards) {
      CloseFd(s->epoll_fd);
      CloseFd(s->event_fd);
    }
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { impl_->Shutdown(); }

io::Status Server::Start() { return impl_->Start(); }

void Server::Shutdown() { impl_->Shutdown(); }

uint16_t Server::port() const { return impl_->port; }

size_t Server::num_shards() const { return impl_->shards.size(); }

}  // namespace met::serve
