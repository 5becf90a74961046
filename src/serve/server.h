// met::serve — shard-per-core network serving engine over the met index
// stack (ROADMAP item 1: the jump from "library + benches" to "system under
// load").
//
// Architecture
//   - One acceptor thread owns the listener and hands each new connection
//     to a shard thread round-robin.
//   - N shard threads, each running its own epoll loop. A shard thread has
//     two jobs: network I/O for the connections it owns (read, decode,
//     write back), and execution for the keyspace partition it owns
//     (hash(key) % N == shard id). The partition's storage engine is only
//     ever touched by its owning thread — shard-per-core, no data locks on
//     the request path.
//   - Requests decoded on connection-owner thread O for a key owned by
//     shard S are passed O -> S through S's bounded admission queue
//     (mutex-guarded vector + eventfd wakeup; batched hand-off so the lock
//     is taken once per read burst, not once per request). Responses travel
//     S -> O the same way and O serializes them onto the connection.
//
// Execution: each shard drains its admission queue in arrival order and
// runs every request where it is dequeued — a GET is one ShardEngine::Get,
// a write one Put or Delete. A read queued before a write therefore sees
// the old value and one queued after it the new one, so same-connection
// pipelined read-your-writes holds by construction. MULTIGET is decomposed
// into one read per key, each run by the key's shard, and is reassembled
// by the connection owner. Write acks wait for the chunk's group commit.
//
// Backpressure (met::guard): every shard owns a cost-aware
// guard::AdmissionController. Requests are charged an estimated cost
// (GET 1, PUT/DELETE 2, SCAN ~rows/16, MULTIGET keys); admission sheds —
// kShed with a retry-after hint, counted in met.guard.shed — when the
// shard's queued cost exceeds queue_capacity or when a CoDel-style
// standing queue-delay target escalates the overload level (higher levels
// refuse progressively cheaper request classes, so scans shed before
// gets). Requests carrying a deadline are refused at admission if the
// standing delay already exceeds their budget, dropped at dequeue if it
// expired while queued, and never reach durable group-commit dead
// (kDeadlineExceeded in all three cases). Tokened writes
// are deduplicated per shard (guard::DedupWindow), making client retries
// at-least-once safe. Connections whose write buffer backs up past a
// high-water mark stop being read until it drains. Queue depth is
// observable via met.serve.queue_depth; queue delay via
// met.guard.queue_delay_us.
//
// Shutdown drains gracefully: reads stop, every admitted request executes,
// responses flush, then sockets close and threads join. In durable mode a
// drained chunk's writes are group-committed (LsmTree::SyncWal) before any
// of the chunk's acks are released, so an acked PUT is always on disk —
// tests kill -9 the process and assert zero acked-but-lost writes.
#ifndef MET_SERVE_SERVER_H_
#define MET_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/index_api.h"
#include "io/io.h"
#include "io/status.h"
#include "obs/metrics.h"

namespace met::serve {

/// Registry-backed counters for the serving engine. Fetch once via Get().
struct ServeObsMetrics {
  obs::Counter* accepted;      // met.serve.conns_accepted
  obs::Counter* closed;        // met.serve.conns_closed
  obs::Counter* requests;      // met.serve.requests
  obs::Counter* proto_errors;  // met.serve.proto_errors (conns killed)
  obs::Histogram* queue_depth;  // met.serve.queue_depth at drain time

  static const ServeObsMetrics& Get();
};

/// Storage behind one shard. Implementations are accessed only by the
/// owning shard thread (single-threaded use; the engine may still run its
/// own background work, e.g. the concurrent hybrid merge).
class ShardEngine {
 public:
  virtual ~ShardEngine() = default;

  virtual bool Get(uint64_t key, uint64_t* value) = 0;
  /// Point reads one by one: out[i] equals Get(keys[i]). The server calls
  /// Get per read; this loop stays so a batch of engine reads can be timed
  /// as one unit (perfbench's replay reports it as
  /// engine.batch_get_us_per_key).
  void GetBatch(const uint64_t* keys, size_t n, LookupResult* out) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t value = 0;
      out[i].found = Get(keys[i], &value);
      out[i].value = value;
    }
  }
  /// Upsert. False means the write could not be applied (durable failure).
  virtual bool Put(uint64_t key, uint64_t value) = 0;
  virtual bool Delete(uint64_t key) = 0;
  /// Up to `limit` values from keys >= start, in key order, within this
  /// shard's partition only (hash partitioning has no global order).
  virtual size_t Scan(uint64_t start, size_t limit,
                      std::vector<uint64_t>* out) = 0;
  /// Group-commit barrier: called once per drained chunk that contained a
  /// write, before that chunk's acks are released. False fails the acks.
  virtual bool SyncWrites() { return true; }
};

/// In-memory engine: HybridBTree<uint64_t> in non-unique (upsert) mode
/// with background merges. Only its shard thread calls it, and no call
/// takes a lock: a merge freezes the dynamic stage in O(1), drains on a
/// background thread that reads only immutable stages, and is adopted in
/// O(1) at the top of the shard thread's next call.
std::unique_ptr<ShardEngine> NewMemoryEngine();

/// Durable engine: LsmTree::Open on `dir` (WAL + MANIFEST, group-fsync via
/// SyncWrites). Keys are 8-byte big-endian so lexicographic order matches
/// numeric order. On open failure returns null and reports through
/// *status.
std::unique_ptr<ShardEngine> NewDurableEngine(const std::string& dir,
                                              io::Env* env,
                                              io::Status* status);

struct ServerOptions {
  uint16_t port = 0;       // 0 = ephemeral; Server::port() has the real one
  size_t num_shards = 0;   // 0 = hardware_concurrency
  /// Per-shard admission bound in guard cost units (a plain GET costs 1,
  /// so for GET-only traffic this is the old per-request bound).
  size_t queue_capacity = 4096;
  /// CoDel-style standing queue-delay target and measurement interval for
  /// the per-shard admission controller (guard/admission.h).
  uint64_t delay_target_us = 5000;
  uint64_t delay_interval_us = 100 * 1000;
  /// Per-shard idempotency window: how many tokened writes each shard
  /// remembers for retry dedup. 0 disables dedup.
  size_t dedup_window = 4096;
  /// Pause reading a connection whose pending response bytes exceed this.
  size_t conn_write_buffer_limit = 4u << 20;

  bool durable = false;
  std::string dir = "/tmp/met_serve";  // durable partitions: dir/shard-<i>
  io::Env* env = nullptr;              // durable mode; nullptr = Posix

  /// Test hook: when set, overrides the durable/memory engine choice.
  std::function<std::unique_ptr<ShardEngine>(size_t shard)> engine_factory;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, builds the shard engines, and starts the acceptor + shard
  /// threads. Returns without blocking; the server runs until Shutdown().
  io::Status Start();

  /// Graceful drain: stop accepting and reading, execute everything
  /// admitted, flush responses, close, join. Idempotent.
  void Shutdown();

  uint16_t port() const;
  size_t num_shards() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace met::serve

#endif  // MET_SERVE_SERVER_H_
