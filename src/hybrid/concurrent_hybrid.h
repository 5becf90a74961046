// Concurrent dual-stage Hybrid Index: the Chapter 5 architecture made safe
// for many readers and a non-blocking background merge.
//
// Layout: writes land in a mutable *active* dynamic stage guarded by a
// shared_mutex; behind it sit an immutable *frozen* dynamic stage (the
// previous active, being drained by the in-flight merge) and an immutable
// static stage, both published through an epoch-protected snapshot pointer
// (hybrid/epoch.h).
//
// Merge lifecycle (see DESIGN.md, "Concurrent hybrid index"):
//   freeze   — under the writer lock, O(1): the active stage becomes the
//              snapshot's frozen stage; a fresh active (and Bloom filter)
//              takes its place.
//   drain    — off-lock: frozen + old static are merged into a brand-new
//              static stage (hybrid::BuildMergedStatic); readers and
//              writers proceed untouched.
//   publish  — under the writer lock, O(1): a snapshot without the frozen
//              stage but with the new static stage is swapped in; the old
//              snapshot is retired to the epoch domain and reclaimed
//              off-lock.
//
// Readers never block on a merge; writers block only for freeze/publish.
// Point reads and scans are per-key atomic (each key reflects some state
// between the operation's invocation and return) but a multi-key scan is
// not a point-in-time snapshot of the whole index: it sees a fixed
// (frozen, static) pair plus the active stage as of each batch fetch.
//
// kMergeCold is normalized to kMergeAll: re-inserting the hot set would put
// O(hot) work back under the writer lock and hot-tracking from the read
// path would race, both defeating the bounded-pause goal. Use the blocking
// HybridIndex when hot-entry retention matters more than pause bounds.
//
// Static stages must be safe for concurrent const reads. CompactBTree,
// CompactSkipList, CompactArt and CompactMasstree qualify (pure const
// probes); CompressedBTree does not (mutable decompression cache), so there
// is no concurrent hybrid-compressed alias.
#ifndef MET_HYBRID_CONCURRENT_HYBRID_H_
#define MET_HYBRID_CONCURRENT_HYBRID_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bloom/bloom.h"
#include "common/assert.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/timer.h"
#include "hybrid/adapters.h"
#include "hybrid/epoch.h"
#include "hybrid/hybrid_index.h"
#include "hybrid/merge_core.h"
#include "obs/obs.h"

namespace met {

/// Process-wide metrics for the concurrent merge path, split by phase so
/// the bounded-pause claim is observable: freeze_ns and publish_ns are the
/// only spans writers can block on; drain_ns is the off-lock rebuild.
struct ConcurrentHybridObsMetrics {
  obs::Counter* merges;
  obs::Histogram* freeze_ns;
  obs::Histogram* drain_ns;
  obs::Histogram* publish_ns;
  obs::Histogram* merge_entries;

  static const ConcurrentHybridObsMetrics& Get() {
    static const ConcurrentHybridObsMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return ConcurrentHybridObsMetrics{
          reg.GetCounter("hybrid.concurrent.merge.count"),
          reg.GetHistogram("hybrid.concurrent.merge.freeze_ns"),
          reg.GetHistogram("hybrid.concurrent.merge.drain_ns"),
          reg.GetHistogram("hybrid.concurrent.merge.publish_ns"),
          reg.GetHistogram("hybrid.concurrent.merge.dynamic_entries"),
      };
    }();
    return m;
  }
};

struct ConcurrentHybridConfig : HybridConfig {
  /// Drain merges on a background thread (production mode). When false the
  /// triggering writer drains synchronously after releasing the writer lock
  /// — fully deterministic, used by the differential fuzz harness.
  bool background_merge = true;
};

template <typename Key, typename DynamicStage, typename StaticStage>
class ConcurrentHybridIndex {
 public:
  using Value = uint64_t;
  static constexpr Value kTombstone = ~Value{0};

  explicit ConcurrentHybridIndex(const ConcurrentHybridConfig& config = {})
      : config_(Normalize(config)),
        active_(std::make_shared<DynamicStage>()),
        bloom_capacity_(std::min<size_t>(config.min_merge_entries, 4096)) {
    if (config_.use_bloom)
      active_bloom_ = std::make_shared<BloomFilter>(
          bloom_capacity_, config_.bloom_bits_per_key);
    snapshot_.store(new Snapshot{nullptr, nullptr,
                                 std::make_shared<const StaticStage>(), 0},
                    std::memory_order_seq_cst);
  }

  ~ConcurrentHybridIndex() {
    WaitForMergeIdle();
    delete snapshot_.load(std::memory_order_seq_cst);
    // epoch_'s destructor runs any still-retired snapshot deleters.
  }

  ConcurrentHybridIndex(const ConcurrentHybridIndex&) = delete;
  ConcurrentHybridIndex& operator=(const ConcurrentHybridIndex&) = delete;

  /// Inserts a new key; false if the key is live (unique mode). Non-unique
  /// inserts always succeed, replacing the value of a live key.
  bool Insert(const Key& key, Value value) {
    bool froze = false;
    {
      sync::WriterMutexLock l(mu_);
      bool live = FindLocked(key, nullptr);
      if (config_.unique && live) return false;
      active_->InsertOrAssign(key, value);
      BloomAdd(key);
      if (!live) size_.fetch_add(1, std::memory_order_relaxed);
      froze = MaybeStartMergeLocked();
    }
    FinishMergeStart(froze);
    return true;
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    {
      sync::ReaderMutexLock l(mu_);
      Value v;
      if (ActiveMayContain(key) && active_->Lookup(key, &v)) {
        if (v == kTombstone) return false;
        if (value != nullptr) *value = v;
        return true;
      }
    }
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    return FindBelow(*s, key, value);
  }

  /// Updates the value of an existing (live) key; new values go to the
  /// active stage so recently modified entries stay hot.
  bool Update(const Key& key, Value value) {
    bool froze = false, ok = false;
    {
      sync::WriterMutexLock l(mu_);
      Value v;
      if (ActiveMayContain(key) && active_->Lookup(key, &v)) {
        if (v == kTombstone) return false;
        active_->Update(key, value);
        return true;
      }
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      if (FindBelow(*s, key, nullptr)) {
        active_->InsertOrAssign(key, value);
        BloomAdd(key);
        ok = true;
        froze = MaybeStartMergeLocked();
      }
    }
    FinishMergeStart(froze);
    return ok;
  }

  /// Erases a live key. Leaves a tombstone in the active stage iff the key
  /// is still live below it (in the frozen or static stage) — the physical
  /// removal then happens at the next merge; otherwise removes physically.
  bool Erase(const Key& key) {
    bool froze = false, ok = false;
    {
      sync::WriterMutexLock l(mu_);
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      Value v;
      if (ActiveMayContain(key) && active_->Lookup(key, &v)) {
        if (v == kTombstone) return false;
        if (FindBelow(*s, key, nullptr)) {
          active_->Update(key, kTombstone);
        } else {
          active_->Erase(key);
        }
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      if (FindBelow(*s, key, nullptr)) {
        active_->InsertOrAssign(key, kTombstone);
        BloomAdd(key);
        size_.fetch_sub(1, std::memory_order_relaxed);
        ok = true;
        froze = MaybeStartMergeLocked();
      }
    }
    FinishMergeStart(froze);
    return ok;
  }

  /// Collects up to `n` values from keys >= `key` in key order across the
  /// three stages (active shadows frozen shadows static). The (frozen,
  /// static) pair is fixed for the whole scan via an epoch pin; the active
  /// stage captured at the start is consulted under the shared lock per
  /// batch, so concurrent writes may or may not be reflected (per-key
  /// atomic, not a point-in-time snapshot).
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    hybrid::EpochGuard g(epoch_);
    std::shared_ptr<DynamicStage> active;
    const Snapshot* s;
    {
      sync::ReaderMutexLock l(mu_);
      active = active_;
      s = snapshot_.load(std::memory_order_seq_cst);
    }
    // `active` stays valid past a concurrent freeze (the shared_ptr keeps
    // the now-frozen stage alive and it is immutable from then on); until a
    // freeze, writers mutate it only under the exclusive lock the fetcher
    // excludes. `s` outlives the scan via the epoch pin.
    std::array<hybrid::StageFetcher<Key, Value>, 3> fetch;
    fetch[0] = [this, &active](const Key& from, size_t batch,
                               std::vector<std::pair<Key, Value>>* pairs) {
      sync::ReaderMutexLock l(mu_);
      active->ScanPairs(from, batch, pairs);
    };
    if (s->frozen != nullptr) {
      fetch[1] = [s](const Key& from, size_t batch,
                     std::vector<std::pair<Key, Value>>* pairs) {
        s->frozen->ScanPairs(from, batch, pairs);
      };
    }
    fetch[2] = [s](const Key& from, size_t batch,
                   std::vector<std::pair<Key, Value>>* pairs) {
      s->stat->ScanPairs(from, batch, pairs);
    };
    return hybrid::MergedScan<Key, Value, 3>(key, n, kTombstone, out, fetch);
  }

  /// Forces a merge of everything buffered so far and waits for it to
  /// publish (drains synchronously on the calling thread).
  void Merge() {
    for (;;) {
      WaitForMergeIdle();
      bool froze = false, empty = false;
      {
        sync::WriterMutexLock l(mu_);
        if (!merge_inflight_.load(std::memory_order_relaxed)) {
          if (active_->size() == 0) {
            empty = true;
          } else {
            merge_inflight_.store(true, std::memory_order_relaxed);
            FreezeLocked();
            froze = true;
          }
        }
      }
      if (empty) return;
      if (froze) {
        DrainAndPublish();
        return;
      }
      // Another writer started a merge between the wait and the lock; wait
      // for it and retry so post-Merge() state is always fully drained.
    }
  }

  /// Blocks until no merge is in flight and the drain thread has exited.
  void WaitForMergeIdle() const {
    sync::MutexLock l(merge_mu_);
    merge_cv_.Wait(merge_mu_, [&] {
      return !merge_inflight_.load(std::memory_order_relaxed);
    });
    if (merge_thread_.joinable()) merge_thread_.join();
  }

  bool MergeInFlight() const {
    return merge_inflight_.load(std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  size_t MemoryUse() const { return MemoryBytes(); }
  size_t MemoryBytes() const {
    size_t bytes = 0;
    {
      sync::ReaderMutexLock l(mu_);
      bytes += active_->MemoryBytes();
      if (active_bloom_ != nullptr) bytes += active_bloom_->MemoryBytes();
    }
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    if (s->frozen != nullptr) bytes += s->frozen->MemoryBytes();
    if (s->frozen_bloom != nullptr) bytes += s->frozen_bloom->MemoryBytes();
    bytes += s->stat->MemoryBytes();
    return bytes;
  }

  /// Per-stage attribution; TotalBytes() == MemoryBytes() (same terms, but
  /// a concurrent merge between the two accessors can move bytes between
  /// stages — compare under quiesced merges).
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("concurrent_hybrid");
    {
      sync::ReaderMutexLock l(mu_);
      b.AddChild("active_stage", active_->Breakdown());
      if (active_bloom_ != nullptr)
        b.AddChild("active_bloom", active_bloom_->Breakdown());
    }
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    if (s->frozen != nullptr) b.AddChild("frozen_stage", s->frozen->Breakdown());
    if (s->frozen_bloom != nullptr)
      b.AddChild("frozen_bloom", s->frozen_bloom->Breakdown());
    b.AddChild("static_stage", s->stat->Breakdown());
    return b;
  }

  size_t ActiveEntries() const {
    sync::ReaderMutexLock l(mu_);
    return active_->size();
  }

  /// Dynamic entries = active + frozen (mirrors the blocking index, where
  /// the whole dynamic stage is one tree).
  size_t DynamicEntries() const {
    size_t n = ActiveEntries();
    hybrid::EpochGuard g(epoch_);
    const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
    if (s->frozen != nullptr) n += s->frozen->size();
    return n;
  }

  size_t StaticEntries() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->stat->size();
  }

  HybridMergeStats merge_stats() const {
    sync::MutexLock l(merge_mu_);
    return stats_;
  }

  /// Version of the published snapshot: incremented at each freeze and each
  /// publish, so it advances by 2 per completed merge.
  uint64_t SnapshotVersion() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->version;
  }

  /// Stable reference to the current static stage (safe to read after the
  /// guard is gone: the shared_ptr keeps it alive past any publish).
  std::shared_ptr<const StaticStage> StaticStageSnapshot() const {
    hybrid::EpochGuard g(epoch_);
    return snapshot_.load(std::memory_order_seq_cst)->stat;
  }

  /// Quiescent-only accessor (no internal locking): for validators and
  /// tests running with no concurrent writers. The annotation opt-out is the
  /// documented contract, not a gap: taking mu_ here would let validators
  /// deadlock against themselves.
  DynamicStage& active_stage() MET_NO_THREAD_SAFETY_ANALYSIS {
    return *active_;
  }

  const hybrid::EpochDomain& epoch_domain() const { return epoch_; }

  /// Verifies the snapshot/merge state machine, the size accounting and the
  /// epoch domain. Requires external quiescence (call WaitForMergeIdle()
  /// first; no concurrent writers). No-op unless MET_CHECK_ENABLED; see
  /// check/concurrent_hybrid_check.h.
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

  /// Reads every guarded member without locks — legal only under the
  /// quiescence contract above, so the static analysis is opted out.
  bool ValidateImpl(std::ostream& os) const MET_NO_THREAD_SAFETY_ANALYSIS;

 private:
  struct Snapshot {
    std::shared_ptr<const DynamicStage> frozen;  // null unless merge in flight
    std::shared_ptr<const BloomFilter> frozen_bloom;  // may be null
    std::shared_ptr<const StaticStage> stat;          // never null
    uint64_t version;
  };

  static ConcurrentHybridConfig Normalize(ConcurrentHybridConfig c) {
    c.strategy = HybridConfig::MergeStrategy::kMergeAll;  // see header note
    return c;
  }

  /// Point probe below the active stage: frozen (tombstones delete), then
  /// static. Callers hold either an epoch pin or the writer lock (the
  /// published snapshot is only swapped under the writer lock, and is never
  /// retired while still published).
  static bool FindBelow(const Snapshot& s, const Key& key, Value* value) {
    Value v;
    if (s.frozen != nullptr &&
        (s.frozen_bloom == nullptr ||
         s.frozen_bloom->MayContain(hybrid::BloomKeyOf(key))) &&
        s.frozen->Lookup(key, &v)) {
      if (v == kTombstone) return false;
      if (value != nullptr) *value = v;
      return true;
    }
    if (s.stat->Lookup(key, &v)) {
      if (value != nullptr) *value = v;
      return true;
    }
    return false;
  }

  /// Full liveness probe under the writer lock.
  bool FindLocked(const Key& key, Value* value) const
      MET_REQUIRES_SHARED(mu_) {
    Value v;
    if (ActiveMayContain(key) && active_->Lookup(key, &v)) {
      if (v == kTombstone) return false;
      if (value != nullptr) *value = v;
      return true;
    }
    return FindBelow(*snapshot_.load(std::memory_order_seq_cst), key, value);
  }

  bool ActiveMayContain(const Key& key) const MET_REQUIRES_SHARED(mu_) {
    return active_bloom_ == nullptr ||
           active_bloom_->MayContain(hybrid::BloomKeyOf(key));
  }

  // ---- Bloom management for the active stage (writer lock held). ----
  void BloomAdd(const Key& key) MET_REQUIRES(mu_) {
    if (active_bloom_ == nullptr) return;
    ++bloom_entries_;
    if (bloom_entries_ > bloom_capacity_) {
      bloom_capacity_ *= 2;
      RebuildBloom();
      return;
    }
    active_bloom_->Add(hybrid::BloomKeyOf(key));
  }

  void RebuildBloom() MET_REQUIRES(mu_) {
    active_bloom_ = std::make_shared<BloomFilter>(bloom_capacity_,
                                                  config_.bloom_bits_per_key);
    bloom_entries_ = active_->size();
    std::vector<MergeEntry<Key, Value>> entries;
    hybrid::CollectSortedEntries<Key, Value>(*active_, kTombstone, &entries);
    for (const auto& e : entries) active_bloom_->Add(hybrid::BloomKeyOf(e.key));
  }

  void FreshBloom(size_t expected) MET_REQUIRES(mu_) {
    if (!config_.use_bloom) return;
    bloom_capacity_ = std::max<size_t>(
        std::min<size_t>(config_.min_merge_entries, 4096), expected);
    active_bloom_ = std::make_shared<BloomFilter>(bloom_capacity_,
                                                  config_.bloom_bits_per_key);
    bloom_entries_ = 0;
  }

  // ---- Merge machinery. ----

  /// Under the writer lock: decides whether a merge is due and, if so,
  /// freezes the active stage. Returns whether a freeze happened (the
  /// caller must then invoke FinishMergeStart() after releasing the lock).
  bool MaybeStartMergeLocked() MET_REQUIRES(mu_) {
    if (merge_inflight_.load(std::memory_order_relaxed)) return false;
    size_t dyn = active_->size();
    if (dyn == 0) return false;
    if (config_.constant_trigger) {
      if (dyn < config_.constant_threshold) return false;
    } else {
      if (dyn < config_.min_merge_entries) return false;
      size_t stat =
          snapshot_.load(std::memory_order_seq_cst)->stat->size();
      if (static_cast<double>(dyn) * config_.merge_ratio <
          static_cast<double>(stat))
        return false;
    }
    merge_inflight_.store(true, std::memory_order_relaxed);
    FreezeLocked();
    return true;
  }

  /// O(1) under the writer lock: the active stage (and its Bloom filter)
  /// become the snapshot's frozen stage; a fresh active takes their place.
  /// The superseded snapshot is retired only after the swap (the epoch
  /// ordering contract) and reclaimed later, off-lock.
  void FreezeLocked() MET_REQUIRES(mu_) {
    obs::ScopedTimer trace(nullptr, "hybrid.concurrent.freeze");
    Timer timer;
    const Snapshot* old = snapshot_.load(std::memory_order_seq_cst);
    MET_DCHECK(old->frozen == nullptr, "freeze with a merge already in flight");
    size_t frozen_entries = active_->size();
    auto* next =
        new Snapshot{std::shared_ptr<const DynamicStage>(std::move(active_)),
                     std::shared_ptr<const BloomFilter>(active_bloom_),
                     old->stat, old->version + 1};
    snapshot_.store(next, std::memory_order_seq_cst);
    epoch_.Retire([old] { delete old; });
    active_ = std::make_shared<DynamicStage>();
    active_bloom_ = nullptr;
    FreshBloom(frozen_entries);
    {
      sync::MutexLock l(merge_mu_);
      stats_.last_merge_dynamic_entries = frozen_entries;
      stats_.last_merge_static_entries = next->stat->size();
    }
    ConcurrentHybridObsMetrics::Get().freeze_ns->RecordNanos(
        timer.ElapsedNanos());
  }

  /// Launches the drain for a freeze performed under the lock. Runs on a
  /// background thread in production; inline (deterministic) otherwise.
  void FinishMergeStart(bool froze) {
    if (!froze) return;
    if (config_.background_merge) {
      sync::MutexLock l(merge_mu_);
      // A previous drain thread has fully finished (merge_inflight_ was
      // false when this freeze won), so the join returns immediately.
      if (merge_thread_.joinable()) merge_thread_.join();
      merge_thread_ = std::thread([this] { DrainAndPublish(); });
    } else {
      DrainAndPublish();
    }
  }

  /// Off-lock: merges frozen + static into a fresh static stage, then
  /// publishes it with an O(1) swap under the writer lock.
  void DrainAndPublish() {
    Timer drain_timer;
    std::shared_ptr<StaticStage> next_stat;
    size_t drained = 0;
    {
      obs::ScopedTimer trace(nullptr, "hybrid.concurrent.drain");
      hybrid::EpochGuard g(epoch_);
      const Snapshot* s = snapshot_.load(std::memory_order_seq_cst);
      MET_DCHECK(s->frozen != nullptr, "drain without a frozen stage");
      std::vector<MergeEntry<Key, Value>> entries;
      entries.reserve(s->frozen->size());
      hybrid::CollectSortedEntries<Key, Value>(*s->frozen, kTombstone,
                                               &entries);
      drained = entries.size();
      next_stat = hybrid::BuildMergedStatic<StaticStage>(*s->stat, entries);
    }
    uint64_t drain_ns = drain_timer.ElapsedNanos();

    Timer publish_timer;
    {
      obs::ScopedTimer trace(nullptr, "hybrid.concurrent.publish");
      sync::WriterMutexLock l(mu_);
      const Snapshot* cur = snapshot_.load(std::memory_order_seq_cst);
      auto* next = new Snapshot{
          nullptr, nullptr,
          std::shared_ptr<const StaticStage>(std::move(next_stat)),
          cur->version + 1};
      snapshot_.store(next, std::memory_order_seq_cst);
      epoch_.Retire([cur] { delete cur; });
    }
    epoch_.TryReclaim();  // off-lock: the old frozen/static free here

    const ConcurrentHybridObsMetrics& obs = ConcurrentHybridObsMetrics::Get();
    obs.merges->Increment();
    obs.drain_ns->RecordNanos(drain_ns);
    obs.publish_ns->RecordNanos(publish_timer.ElapsedNanos());
    obs.merge_entries->Record(drained);
    {
      sync::MutexLock l(merge_mu_);
      ++stats_.merge_count;
      stats_.last_merge_seconds =
          static_cast<double>(drain_ns) / 1e9;
      stats_.total_merge_seconds += stats_.last_merge_seconds;
      merge_inflight_.store(false, std::memory_order_relaxed);
      merge_cv_.NotifyAll();
    }
  }

  ConcurrentHybridConfig config_;

  mutable sync::SharedMutex mu_;
  std::shared_ptr<DynamicStage> active_ MET_GUARDED_BY(mu_);
  std::shared_ptr<BloomFilter> active_bloom_ MET_GUARDED_BY(mu_);
  size_t bloom_entries_ MET_GUARDED_BY(mu_) = 0;
  size_t bloom_capacity_ MET_GUARDED_BY(mu_);

  /// Published pointer: readers reach it through an epoch pin (EpochGuard),
  /// never a lock; writers swap it under mu_ and retire the old value. The
  /// pointee is const — the lint pass enforces that shape.
  sync::Atomic<const Snapshot*> snapshot_{nullptr};
  mutable hybrid::EpochDomain epoch_;

  sync::Atomic<size_t> size_{0};

  sync::Atomic<bool> merge_inflight_{false};
  mutable sync::Mutex merge_mu_;
  mutable sync::CondVar merge_cv_;
  mutable std::thread merge_thread_ MET_GUARDED_BY(merge_mu_);
  HybridMergeStats stats_ MET_GUARDED_BY(merge_mu_);
};

// ---------------------------------------------------------------------------
// Aliases: the concurrent counterparts of hybrid.h. No compressed variant —
// CompressedBTree's mutable page cache is unsafe for concurrent readers.
// ---------------------------------------------------------------------------

template <typename Key>
using ConcurrentHybridBTree =
    ConcurrentHybridIndex<Key, DynBTreeStage<Key>, StatCompactBTreeStage<Key>>;

template <typename Key>
using ConcurrentHybridSkipList =
    ConcurrentHybridIndex<Key, DynSkipListStage<Key>,
                          StatCompactSkipListStage<Key>>;

using ConcurrentHybridArt =
    ConcurrentHybridIndex<std::string, DynArtStage, StatCompactArtStage>;

using ConcurrentHybridMasstree =
    ConcurrentHybridIndex<std::string, DynMasstreeStage,
                          StatCompactMasstreeStage>;

}  // namespace met

#endif  // MET_HYBRID_CONCURRENT_HYBRID_H_
