// Dual-stage Hybrid Index (Chapter 5): a single logical index made of a
// small dynamic stage that absorbs all writes and a compact static stage
// holding the bulk of the entries. A Bloom filter in front of the dynamic
// stage lets most point reads touch only one stage. Entries migrate with a
// ratio-triggered merge (merge-all strategy, Section 5.2.2).
//
// Deletes of static-stage entries insert a tombstone into the dynamic stage
// (value == kTombstone); the key is physically removed at the next merge.
//
// One owner thread makes every call, as inside an H-Store partition (Ch. 5)
// or a met_server shard. A merge is three steps (DESIGN.md, "Owner-merged
// hybrid index"):
//   freeze — owner, O(1): the active dynamic stage and its Bloom filter
//            become the immutable frozen stage; a fresh active stage takes
//            their place.
//   drain  — one pass over the old static stage (const) and the frozen
//            stage's sorted entries streams into a fresh static stage's bulk
//            builder. It runs inline unless HybridConfig::background_merge,
//            in which case it runs on a std::thread that reads only those
//            two inputs.
//   adopt  — owner, O(1): the fresh static stage replaces the old one and
//            the frozen stage is dropped. A background drain's result is
//            adopted at the top of the owner's next call; the drain thread
//            then drops the last references, so the retired stages are freed
//            off the owner thread.
// Reads go active -> frozen -> static and take no lock.
//
// Stage interfaces (duck-typed):
//   Dynamic: InsertOrAssign/Lookup/Update/Erase/size/MemoryBytes/Breakdown
//            + ScanPairs.
//   Static:  Lookup/size/MemoryBytes/Breakdown/ScanPairs + VisitAll (const
//            walk in key order) and BuildFrom (bulk build from a sorted
//            stream).
#ifndef MET_HYBRID_HYBRID_INDEX_H_
#define MET_HYBRID_HYBRID_INDEX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bloom/bloom.h"
#include "btree/compact_btree.h"
#include "check/fwd.h"
#include "common/assert.h"
#include "common/sync.h"
#include "common/timer.h"
#include "hybrid/merge_core.h"
#include "obs/obs.h"

namespace met {

/// Process-wide hybrid-index metrics, aggregated over every HybridIndex
/// instantiation (per-instance numbers stay available via merge_stats()).
/// The three phase histograms partition each merge's time: their sums add
/// up to the total merge time, with nothing counted twice.
struct HybridObsMetrics {
  obs::Counter* merges;
  obs::Histogram* freeze_ns;
  obs::Histogram* drain_ns;
  obs::Histogram* adopt_ns;
  obs::Histogram* merge_entries;  // dynamic entries drained per merge
  obs::Histogram* merge_static_entries;

  static const HybridObsMetrics& Get() {
    static const HybridObsMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return HybridObsMetrics{
          reg.GetCounter("hybrid.merge.count"),
          reg.GetHistogram("hybrid.merge.freeze_ns"),
          reg.GetHistogram("hybrid.merge.drain_ns"),
          reg.GetHistogram("hybrid.merge.adopt_ns"),
          reg.GetHistogram("hybrid.merge.dynamic_entries"),
          reg.GetHistogram("hybrid.merge.static_entries"),
      };
    }();
    return m;
  }
};

struct HybridConfig {
  /// Merge when dynamic_entries * merge_ratio >= static_entries (and the
  /// dynamic stage holds at least min_merge_entries). Ratio 10 is the
  /// default chosen by the Figure 5.7 sensitivity analysis.
  double merge_ratio = 10.0;
  size_t min_merge_entries = 4096;

  /// Constant trigger alternative (Section 5.2.2): merge whenever the
  /// dynamic stage reaches `constant_threshold` entries.
  bool constant_trigger = false;
  size_t constant_threshold = 65536;

  bool use_bloom = true;
  double bloom_bits_per_key = 10.0;

  /// Secondary (non-unique) index mode: inserts skip the two-stage
  /// key-uniqueness check (Section 5.3.5).
  bool unique = true;

  /// Merge strategy (Section 5.2.2). kMergeAll drains the whole dynamic
  /// stage (the thesis default: best for insert-heavy OLTP). kMergeCold
  /// keeps entries read or written since the previous merge in the dynamic
  /// stage, trading merge frequency for hot-entry locality.
  enum class MergeStrategy { kMergeAll, kMergeCold };
  MergeStrategy strategy = MergeStrategy::kMergeAll;

  /// Drain triggered merges on a background thread (the served engine).
  /// False drains inline, blocking the triggering call (the paper benches,
  /// minidb, the differential harness). Merge() always drains inline.
  /// Rejected with kMergeCold (the hot set is owner state) and with a
  /// static stage whose const reads mutate a cache (CompressedBTree).
  bool background_merge = false;
};

/// Per-instance merge statistics. The process-wide aggregates (counts,
/// phase and entry histograms) live in the obs::MetricsRegistry under
/// "hybrid.merge.*" (see HybridObsMetrics).
struct HybridMergeStats {
  size_t merge_count = 0;
  double total_merge_seconds = 0;
  double last_merge_seconds = 0;  // freeze + drain + adopt
  size_t last_merge_static_entries = 0;
  size_t last_merge_dynamic_entries = 0;
};

template <typename Key, typename DynamicStage, typename StaticStage>
class HybridIndex {
 public:
  using Value = uint64_t;
  static constexpr Value kTombstone = ~Value{0};

  explicit HybridIndex(const HybridConfig& config = {})
      : config_(config),
        dynamic_(std::make_unique<DynamicStage>()),
        static_(std::make_shared<const StaticStage>()) {
    MET_ASSERT(!config.background_merge ||
                   config.strategy == HybridConfig::MergeStrategy::kMergeAll,
               "background_merge requires kMergeAll");
    MET_ASSERT(!config.background_merge || !hybrid::HasReadCache<StaticStage>,
               "background_merge requires a static stage with const reads");
    // Start small; the filter doubles (and is rebuilt) as the dynamic stage
    // grows, and is resized to the observed population at each freeze.
    ResetBloom(0);
  }

  ~HybridIndex() { WaitForMergeIdle(); }

  HybridIndex(const HybridIndex&) = delete;
  HybridIndex& operator=(const HybridIndex&) = delete;

  /// Inserts a new key; false if the key exists (primary-index uniqueness
  /// check spans every stage, Section 5.3.2). In non-unique mode the insert
  /// always succeeds; over a live key it replaces the stored value (the
  /// stages hold one value per key), so the liveness probe is still needed
  /// to keep size() exact — a replacement must not grow the entry count,
  /// while an insert over a tombstoned or absent key must.
  bool Insert(const Key& key, Value value) {
    AdoptIfDrained();
    bool live = FindInternal(key, nullptr);
    if (config_.unique && live) return false;
    dynamic_->InsertOrAssign(key, value);  // may overwrite a tombstone
    BloomAdd(key);
    MarkHot(key);
    if (!live) ++size_;
    ++ops_since_merge_;
    MaybeMerge();
    return true;
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    AdoptIfDrained();
    bool found = FindInternal(key, value);
    if (found) MarkHot(key);
    return found;
  }

  /// Updates the value of an existing key. New values go to the dynamic
  /// stage so recently modified entries stay hot (Section 5.1).
  bool Update(const Key& key, Value value) {
    AdoptIfDrained();
    Value existing;
    if (MayContain(bloom_.get(), key) && dynamic_->Lookup(key, &existing)) {
      if (existing == kTombstone) return false;
      dynamic_->Update(key, value);
      MarkHot(key);
      return true;
    }
    if (!FindBelow(key, nullptr)) return false;
    dynamic_->InsertOrAssign(key, value);
    BloomAdd(key);
    MarkHot(key);
    ++ops_since_merge_;
    MaybeMerge();
    return true;
  }

  /// Erases a live key. Leaves a tombstone in the dynamic stage iff the key
  /// is still live below it (frozen or static stage); otherwise removes it
  /// physically.
  bool Erase(const Key& key) {
    AdoptIfDrained();
    Value existing;
    if (MayContain(bloom_.get(), key) && dynamic_->Lookup(key, &existing)) {
      if (existing == kTombstone) return false;
      if (FindBelow(key, nullptr)) {
        dynamic_->Update(key, kTombstone);
      } else {
        dynamic_->Erase(key);
      }
      --size_;
      return true;
    }
    if (!FindBelow(key, nullptr)) return false;
    dynamic_->InsertOrAssign(key, kTombstone);
    BloomAdd(key);
    --size_;
    ++ops_since_merge_;
    MaybeMerge();
    return true;
  }

  /// Collects up to `n` values from keys >= `key`, in key order, merging
  /// the stages (active shadows frozen shadows static) and resolving
  /// tombstones. hybrid::MergedScan refetches with a doubled batch when
  /// tombstones or shadows consume the per-stage quota, and never emits from
  /// a partial merge, so results are always a correct prefix of the logical
  /// scan.
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    AdoptIfDrained();
    std::array<hybrid::StageFetcher<Key, Value>, 3> fetch;
    fetch[0] = [this](const Key& from, size_t batch,
                      std::vector<std::pair<Key, Value>>* pairs) {
      dynamic_->ScanPairs(from, batch, pairs);
    };
    if (frozen_ != nullptr) {
      fetch[1] = [this](const Key& from, size_t batch,
                        std::vector<std::pair<Key, Value>>* pairs) {
        frozen_->ScanPairs(from, batch, pairs);
      };
    }
    fetch[2] = [this](const Key& from, size_t batch,
                      std::vector<std::pair<Key, Value>>* pairs) {
      static_->ScanPairs(from, batch, pairs);
    };
    return hybrid::MergedScan<Key, Value, 3>(key, n, kTombstone, out, fetch);
  }

  /// Merges everything buffered so far and returns once it is adopted: an
  /// in-flight background merge is finished first, then the rest is drained
  /// inline. Under kMergeAll the dynamic stage is left empty; under
  /// kMergeCold entries accessed since the previous merge stay behind
  /// (tombstones always migrate). A no-op when the dynamic stage is empty.
  void Merge() {
    WaitForMergeIdle();
    if (dynamic_->size() > 0) StartMerge(/*background=*/false);
  }

  /// Adopts an in-flight background merge (waiting for its drain) and joins
  /// the drain thread.
  void WaitForMergeIdle() {
    if (handoff_ != nullptr) {
      handoff_->AwaitDone();
      FinishBackgroundMerge();
    }
    if (drain_thread_.joinable()) drain_thread_.join();
  }

  /// True from a background freeze until its adoption.
  bool MergeInFlight() const { return handoff_ != nullptr; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t MemoryBytes() const {
    size_t bytes = dynamic_->MemoryBytes() + static_->MemoryBytes();
    if (frozen_ != nullptr) bytes += frozen_->MemoryBytes();
    if (bloom_ != nullptr) bytes += bloom_->MemoryBytes();
    if (frozen_bloom_ != nullptr) bytes += frozen_bloom_->MemoryBytes();
    return bytes;
  }

  /// Per-stage attribution; TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("hybrid_index");
    b.AddChild("dynamic_stage", dynamic_->Breakdown());
    if (frozen_ != nullptr) b.AddChild("frozen_stage", frozen_->Breakdown());
    b.AddChild("static_stage", static_->Breakdown());
    if (bloom_ != nullptr) b.AddChild("bloom", bloom_->Breakdown());
    if (frozen_bloom_ != nullptr)
      b.AddChild("frozen_bloom", frozen_bloom_->Breakdown());
    return b;
  }

  /// Dynamic entries = active + frozen.
  size_t DynamicEntries() const {
    return dynamic_->size() + (frozen_ != nullptr ? frozen_->size() : 0);
  }
  size_t StaticEntries() const { return static_->size(); }
  const HybridMergeStats& merge_stats() const { return stats_; }

  DynamicStage& dynamic_stage() { return *dynamic_; }
  const StaticStage& static_stage() const { return *static_; }

  /// Verifies the merge state machine, the tombstone discipline and the
  /// size accounting. Owner thread only; a background drain may be in
  /// flight. No-op unless MET_CHECK_ENABLED; see check/hybrid_check.h.
  bool Validate(std::ostream& os) const {
#if MET_CHECK_ENABLED
    return ValidateImpl(os);
#else
    (void)os;
    return true;
#endif
  }

 private:
  friend struct check::TestAccess;

  bool ValidateImpl(std::ostream& os) const;  // check/hybrid_check.h

  /// A drain's output: the fresh static stage, plus (kMergeCold) the hot
  /// live entries that go back into the active stage.
  struct Drained {
    std::shared_ptr<const StaticStage> stage;
    std::vector<std::pair<Key, Value>> hot;
    uint64_t ns = 0;
  };

  /// The only state a background drain thread shares with the owner.
  struct Handoff {
    sync::Mutex mu;
    sync::CondVar cv;
    Drained result MET_GUARDED_BY(mu);
    sync::Atomic<bool> done{false};     // result stored
    sync::Atomic<bool> adopted{false};  // owner dropped its references

    void Publish(Drained&& d) {
      {
        sync::MutexLock l(mu);
        result = std::move(d);
        done.store(true);
      }
      cv.NotifyAll();
    }
    Drained Result() {
      sync::MutexLock l(mu);
      return result;
    }
    bool HasResult() {
      sync::MutexLock l(mu);
      return result.stage != nullptr;
    }
    void MarkAdopted() {
      {
        sync::MutexLock l(mu);
        adopted.store(true);
      }
      cv.NotifyAll();
    }
    void AwaitDone() {
      sync::MutexLock l(mu);
      cv.Wait(mu, [this] { return done.load(); });
    }
    void AwaitAdoption() {
      sync::MutexLock l(mu);
      cv.Wait(mu, [this] { return adopted.load(); });
    }
  };

  /// The drain, one routine for both modes. Reads only its two immutable
  /// inputs (and the hot set, which is empty unless kMergeCold, inline).
  static Drained Drain(const DynamicStage& frozen, const StaticStage& base,
                       const std::unordered_set<Key>& hot_keys) {
    obs::ScopedTimer span(nullptr, "hybrid.merge.drain");
    Timer timer;
    std::vector<MergeEntry<Key, Value>> updates;
    hybrid::CollectSortedEntries<Key, Value>(frozen, kTombstone, &updates);
    Drained d;
    if (!hot_keys.empty()) hybrid::SplitHotCold(&updates, hot_keys, &d.hot);
    d.stage = hybrid::BuildMergedStage(base, updates);
    d.ns = timer.ElapsedNanos();
    return d;
  }

  /// A background drain: publishes its result, waits for the owner to
  /// adopt it, then drops the last references to the retired stages.
  static void RunDrain(const std::shared_ptr<Handoff>& h,
                       std::shared_ptr<const DynamicStage> frozen,
                       std::shared_ptr<const StaticStage> base) {
    h->Publish(Drain(*frozen, *base, {}));
    h->AwaitAdoption();
    frozen.reset();
    base.reset();
  }

  bool FindInternal(const Key& key, Value* value) const {
    Value v;
    if (MayContain(bloom_.get(), key) && dynamic_->Lookup(key, &v)) {
      if (v == kTombstone) return false;
      if (value != nullptr) *value = v;
      return true;
    }
    return FindBelow(key, value);
  }

  /// Point probe below the active stage: frozen (tombstones delete), then
  /// static.
  bool FindBelow(const Key& key, Value* value) const {
    Value v;
    if (frozen_ != nullptr && MayContain(frozen_bloom_.get(), key) &&
        frozen_->Lookup(key, &v)) {
      if (v == kTombstone) return false;
      if (value != nullptr) *value = v;
      return true;
    }
    if (!static_->Lookup(key, &v)) return false;
    if (value != nullptr) *value = v;
    return true;
  }

  static bool MayContain(const BloomFilter* bloom, const Key& key) {
    return bloom == nullptr || bloom->MayContain(hybrid::BloomKeyOf(key));
  }

  void MaybeMerge() {
    if (handoff_ != nullptr) return;  // one merge in flight at a time
    // Under merge-cold the dynamic stage never fully drains; require fresh
    // dynamic entries before re-triggering so merges cannot thrash.
    if (config_.strategy == HybridConfig::MergeStrategy::kMergeCold &&
        ops_since_merge_ < config_.min_merge_entries / 2)
      return;
    size_t dyn = dynamic_->size();
    bool due = config_.constant_trigger
                   ? dyn >= config_.constant_threshold
                   : dyn >= config_.min_merge_entries &&
                         static_cast<double>(dyn) * config_.merge_ratio >=
                             static_cast<double>(static_->size());
    if (due) StartMerge(config_.background_merge);
  }

  void StartMerge(bool background) {
    // Create the handoff before freezing: a background merge then never
    // shows a frozen stage without its handoff (the validator pairs them).
    if (background) handoff_ = std::make_shared<Handoff>();
    Freeze();
    if (background) {
      SpawnDrain();
      return;
    }
    std::unordered_set<Key> hot;
    hot.swap(hot_keys_);
    Drained d = Drain(*frozen_, *static_, hot);
    std::vector<std::pair<Key, Value>> survivors = std::move(d.hot);
    Adopt(std::move(d));
    for (auto& [k, v] : survivors) {
      dynamic_->InsertOrAssign(k, v);
      BloomAdd(k);
    }
  }

  void Freeze() {
    obs::ScopedTimer span(nullptr, "hybrid.merge.freeze");
    Timer timer;
    stats_.last_merge_dynamic_entries = dynamic_->size();
    stats_.last_merge_static_entries = static_->size();
    frozen_ = std::move(dynamic_);
    frozen_bloom_ = std::move(bloom_);
    dynamic_ = std::make_unique<DynamicStage>();
    ResetBloom(stats_.last_merge_dynamic_entries);
    ops_since_merge_ = 0;
    freeze_ns_ = timer.ElapsedNanos();
    HybridObsMetrics::Get().freeze_ns->RecordNanos(freeze_ns_);
  }

  void SpawnDrain() {
    if (drain_thread_.joinable()) drain_thread_.join();  // long finished
    auto body = [h = handoff_, frozen = frozen_, base = static_]() mutable {
      RunDrain(h, std::move(frozen), std::move(base));
    };
    if (spawn_drain_for_test_) {
      spawn_drain_for_test_(std::move(body));
    } else {
      drain_thread_ = std::thread(std::move(body));
    }
  }

  /// Adopts a published background drain; a no-op otherwise. Runs at the
  /// top of every read and write.
  void AdoptIfDrained() const {
    if (handoff_ != nullptr && handoff_->done.load()) FinishBackgroundMerge();
  }

  void FinishBackgroundMerge() const {
    std::shared_ptr<Handoff> h = handoff_;
    Adopt(h->Result());
    h->MarkAdopted();  // the drain thread frees the retired stages
  }

  /// O(1) on the owner thread; const because it may run at the top of a
  /// const read, so what it swaps is mutable.
  void Adopt(Drained&& d) const {
    obs::ScopedTimer span(nullptr, "hybrid.merge.adopt");
    Timer timer;
    static_ = std::move(d.stage);
    frozen_.reset();
    frozen_bloom_.reset();
    handoff_.reset();
    uint64_t adopt_ns = timer.ElapsedNanos();
    uint64_t total_ns = freeze_ns_ + d.ns + adopt_ns;
    ++stats_.merge_count;
    stats_.last_merge_seconds = static_cast<double>(total_ns) / 1e9;
    stats_.total_merge_seconds += stats_.last_merge_seconds;
    const HybridObsMetrics& obs = HybridObsMetrics::Get();
    obs.merges->Increment();
    obs.drain_ns->RecordNanos(d.ns);
    obs.adopt_ns->RecordNanos(adopt_ns);
    obs.merge_entries->Record(stats_.last_merge_dynamic_entries);
    obs.merge_static_entries->Record(stats_.last_merge_static_entries);
  }

  // ---- Bloom management: sized to the expected dynamic-stage population,
  // rebuilt from scratch when it overflows, resized at each freeze. ----
  void BloomAdd(const Key& key) {
    if (bloom_ == nullptr) return;
    ++bloom_entries_;
    if (bloom_entries_ > bloom_capacity_) {
      bloom_capacity_ *= 2;
      RebuildBloom();
      return;
    }
    bloom_->Add(hybrid::BloomKeyOf(key));
  }

  void ResetBloom(size_t expected) {
    if (!config_.use_bloom) return;
    bloom_capacity_ = std::max<size_t>(
        std::min<size_t>(config_.min_merge_entries, 4096), expected);
    bloom_ = std::make_unique<BloomFilter>(bloom_capacity_,
                                           config_.bloom_bits_per_key);
    bloom_entries_ = 0;
  }

  void RebuildBloom() {
    bloom_ = std::make_unique<BloomFilter>(bloom_capacity_,
                                           config_.bloom_bits_per_key);
    bloom_entries_ = dynamic_->size();
    std::vector<MergeEntry<Key, Value>> entries;
    hybrid::CollectSortedEntries<Key, Value>(*dynamic_, kTombstone, &entries);
    for (const auto& e : entries) bloom_->Add(hybrid::BloomKeyOf(e.key));
  }

  void MarkHot(const Key& key) const {
    if (config_.strategy == HybridConfig::MergeStrategy::kMergeCold)
      hot_keys_.insert(key);
  }

  HybridConfig config_;
  size_t ops_since_merge_ = 0;  // dynamic entries added since the last merge
  mutable std::unordered_set<Key> hot_keys_;  // accesses since last merge
  std::unique_ptr<DynamicStage> dynamic_;     // the active stage
  std::unique_ptr<BloomFilter> bloom_;
  size_t bloom_entries_ = 0;
  size_t bloom_capacity_ = 0;
  size_t size_ = 0;

  // Merge state, owner thread only. Adopt() may run from a const read, so
  // everything it touches is mutable. frozen_ is non-null exactly while a
  // merge is in flight (between freeze and adopt).
  mutable std::shared_ptr<const DynamicStage> frozen_;
  mutable std::unique_ptr<const BloomFilter> frozen_bloom_;
  mutable std::shared_ptr<const StaticStage> static_;
  mutable std::shared_ptr<Handoff> handoff_;  // background drain in flight
  mutable HybridMergeStats stats_;
  uint64_t freeze_ns_ = 0;
  std::thread drain_thread_;
  /// Test hook (check::TestAccess): runs a background drain's body on a
  /// caller-chosen thread instead of a new std::thread.
  std::function<void(std::function<void()>)> spawn_drain_for_test_;
};

}  // namespace met

#endif  // MET_HYBRID_HYBRID_INDEX_H_
