// Dual-stage Hybrid Index (Chapter 5): a single logical index made of a
// small dynamic stage that absorbs all writes and a compact static stage
// holding the bulk of the entries. A Bloom filter in front of the dynamic
// stage lets most point reads touch only one stage. Entries migrate with a
// ratio-triggered merge (merge-all strategy, Section 5.2.2).
//
// Deletes of static-stage entries insert a tombstone into the dynamic stage
// (value == kTombstone); the key is physically removed at the next merge.
//
// Stage interfaces (duck-typed):
//   Dynamic: Insert/InsertOrAssign/Find/Update/Erase/Clear/size/MemoryBytes
//            + ScanPairs via adapter traits below.
//   Static:  Find/size/MemoryBytes/MergeApply(sorted MergeEntry vector)
//            + ScanPairs.
#ifndef MET_HYBRID_HYBRID_INDEX_H_
#define MET_HYBRID_HYBRID_INDEX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bloom/bloom.h"
#include "btree/compact_btree.h"
#include "common/timer.h"
#include "hybrid/merge_core.h"
#include "obs/obs.h"

namespace met {

/// Process-wide hybrid-index metrics, aggregated over every HybridIndex
/// instantiation (per-instance numbers stay available via merge_stats()).
struct HybridObsMetrics {
  obs::Counter* merges;
  obs::Histogram* merge_pause_ns;     // write-blocking merge duration
  obs::Histogram* merge_entries;      // dynamic entries drained per merge
  obs::Histogram* merge_static_entries;

  static const HybridObsMetrics& Get() {
    static const HybridObsMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return HybridObsMetrics{
          reg.GetCounter("hybrid.merge.count"),
          reg.GetHistogram("hybrid.merge.pause_ns"),
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
};

/// Per-instance merge statistics — a thin view kept for API compatibility.
/// The process-wide aggregates (counts, pause and entry histograms) live in
/// the obs::MetricsRegistry under "hybrid.merge.*" (see HybridObsMetrics).
struct HybridMergeStats {
  size_t merge_count = 0;
  double total_merge_seconds = 0;
  double last_merge_seconds = 0;
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
        bloom_capacity_(std::min<size_t>(config.min_merge_entries, 4096)) {
    // Start small; the filter doubles (and is rebuilt) as the dynamic stage
    // grows, and is resized to the observed population at each merge.
    if (config.use_bloom)
      bloom_ = new BloomFilter(bloom_capacity_, config.bloom_bits_per_key);
  }

  ~HybridIndex() { delete bloom_; }

  HybridIndex(const HybridIndex&) = delete;
  HybridIndex& operator=(const HybridIndex&) = delete;

  /// Inserts a new key; false if the key exists (primary-index uniqueness
  /// check spans both stages, Section 5.3.2). In non-unique mode the insert
  /// always succeeds; over a live key it replaces the stored value (the
  /// stages hold one value per key), so the liveness probe is still needed
  /// to keep size() exact — a replacement must not grow the entry count,
  /// while an insert over a tombstoned or absent key must.
  bool Insert(const Key& key, Value value) {
    bool live = FindInternal(key, nullptr);
    if (config_.unique && live) return false;
    dynamic_.InsertOrAssign(key, value);  // may overwrite a tombstone
    BloomAdd(key);
    if (config_.strategy == HybridConfig::MergeStrategy::kMergeCold)
      MarkHot(key);
    if (!live) ++size_;
    ++ops_since_merge_;
    MaybeMerge();
    return true;
  }

  /// Unified point lookup (met::RangeIndex surface).
  bool Lookup(const Key& key, Value* value = nullptr) const {
    bool found = FindInternal(key, value);
    if (found && config_.strategy == HybridConfig::MergeStrategy::kMergeCold)
      MarkHot(key);
    return found;
  }

  /// Updates the value of an existing key. New values go to the dynamic
  /// stage so recently modified entries stay hot (Section 5.1).
  bool Update(const Key& key, Value value) {
    Value existing;
    if (dynamic_.Lookup(key, &existing)) {
      if (existing == kTombstone) return false;
      dynamic_.Update(key, value);
      return true;
    }
    if (static_.Lookup(key, &existing)) {
      dynamic_.InsertOrAssign(key, value);
      BloomAdd(key);
      MaybeMerge();
      return true;
    }
    return false;
  }

  bool Erase(const Key& key) {
    Value existing;
    if (dynamic_.Lookup(key, &existing)) {
      if (existing == kTombstone) return false;
      bool in_static = static_.Lookup(key, nullptr);
      if (in_static) {
        dynamic_.Update(key, kTombstone);
      } else {
        dynamic_.Erase(key);
      }
      --size_;
      return true;
    }
    if (static_.Lookup(key, nullptr)) {
      dynamic_.InsertOrAssign(key, kTombstone);
      BloomAdd(key);
      --size_;
      MaybeMerge();
      return true;
    }
    return false;
  }

  /// Collects up to `n` values from keys >= `key`, in key order, merging
  /// both stages and resolving shadows/tombstones. hybrid::MergedScan
  /// refetches with a doubled batch when tombstones or shadows consume the
  /// per-stage quota, and never emits from a partial merge, so results are
  /// always a correct prefix of the logical scan.
  size_t Scan(const Key& key, size_t n, std::vector<Value>* out) const {
    std::array<hybrid::StageFetcher<Key, Value>, 2> fetch = {
        [this](const Key& from, size_t batch,
               std::vector<std::pair<Key, Value>>* pairs) {
          dynamic_.ScanPairs(from, batch, pairs);
        },
        [this](const Key& from, size_t batch,
               std::vector<std::pair<Key, Value>>* pairs) {
          static_.ScanPairs(from, batch, pairs);
        },
    };
    return hybrid::MergedScan<Key, Value, 2>(key, n, kTombstone, out, fetch);
  }

  /// Migrates dynamic-stage entries into the static stage. Under kMergeAll
  /// the dynamic stage is fully drained; under kMergeCold entries accessed
  /// since the previous merge stay behind (tombstones always migrate).
  void Merge() {
    Timer timer;
    obs::ScopedTimer span(nullptr, "hybrid.merge");
    stats_.last_merge_static_entries = static_.size();
    stats_.last_merge_dynamic_entries = dynamic_.size();
    std::vector<MergeEntry<Key, Value>> entries;
    entries.reserve(dynamic_.size());
    hybrid::CollectSortedEntries<Key, Value>(dynamic_, kTombstone, &entries);

    std::vector<std::pair<Key, Value>> hot;
    if (config_.strategy == HybridConfig::MergeStrategy::kMergeCold)
      hybrid::SplitHotCold(&entries, hot_keys_, &hot);

    static_.MergeApply(entries);
    dynamic_.Clear();
    BloomReset();
    for (auto& [k, v] : hot) {
      dynamic_.InsertOrAssign(k, v);
      BloomAdd(k);
    }
    hot_keys_.clear();
    ops_since_merge_ = 0;
    stats_.last_merge_seconds = timer.ElapsedSeconds();
    stats_.total_merge_seconds += stats_.last_merge_seconds;
    ++stats_.merge_count;
    const HybridObsMetrics& obs = HybridObsMetrics::Get();
    obs.merges->Increment();
    obs.merge_pause_ns->RecordNanos(timer.ElapsedNanos());
    obs.merge_entries->Record(stats_.last_merge_dynamic_entries);
    obs.merge_static_entries->Record(stats_.last_merge_static_entries);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t MemoryUse() const { return MemoryBytes(); }
  size_t MemoryBytes() const {
    size_t bytes = dynamic_.MemoryBytes() + static_.MemoryBytes();
    if (bloom_ != nullptr) bytes += bloom_->MemoryBytes();
    return bytes;
  }

  /// Per-stage attribution; TotalBytes() == MemoryBytes() (same terms).
  MemoryBreakdown Breakdown() const {
    MemoryBreakdown b("hybrid_index");
    b.AddChild("dynamic_stage", dynamic_.Breakdown());
    b.AddChild("static_stage", static_.Breakdown());
    if (bloom_ != nullptr) b.AddChild("bloom", bloom_->Breakdown());
    return b;
  }

  size_t DynamicEntries() const { return dynamic_.size(); }
  size_t StaticEntries() const { return static_.size(); }
  const HybridMergeStats& merge_stats() const { return stats_; }

  DynamicStage& dynamic_stage() { return dynamic_; }
  StaticStage& static_stage() { return static_; }

 private:
  bool FindInternal(const Key& key, Value* value) const {
    if (bloom_ == nullptr || BloomMayContain(key)) {
      Value v;
      if (dynamic_.Lookup(key, &v)) {
        if (v == kTombstone) return false;
        if (value != nullptr) *value = v;
        return true;
      }
    }
    Value v;
    if (static_.Lookup(key, &v)) {
      if (value != nullptr) *value = v;
      return true;
    }
    return false;
  }

  void MaybeMerge() {
    // Under merge-cold the dynamic stage never fully drains; require fresh
    // insert volume before re-triggering so merges cannot thrash.
    if (config_.strategy == HybridConfig::MergeStrategy::kMergeCold &&
        ops_since_merge_ < config_.min_merge_entries / 2)
      return;
    size_t dyn = dynamic_.size();
    if (config_.constant_trigger) {
      if (dyn >= config_.constant_threshold) Merge();
      return;
    }
    if (dyn < config_.min_merge_entries) return;
    if (static_cast<double>(dyn) * config_.merge_ratio >=
        static_cast<double>(static_.size()))
      Merge();
  }

  // ---- Bloom management: sized to the expected dynamic-stage population,
  // rebuilt from scratch when it overflows or at merge time. ----
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

  void BloomReset() {
    if (bloom_ == nullptr) return;
    bloom_capacity_ = std::max<size_t>(
        std::min<size_t>(config_.min_merge_entries, 4096),
        stats_.last_merge_dynamic_entries);
    delete bloom_;
    bloom_ = new BloomFilter(bloom_capacity_, config_.bloom_bits_per_key);
    bloom_entries_ = 0;
  }

  void RebuildBloom() {
    delete bloom_;
    bloom_ = new BloomFilter(bloom_capacity_, config_.bloom_bits_per_key);
    bloom_entries_ = dynamic_.size();
    std::vector<MergeEntry<Key, Value>> entries;
    hybrid::CollectSortedEntries<Key, Value>(dynamic_, kTombstone, &entries);
    for (const auto& e : entries) bloom_->Add(hybrid::BloomKeyOf(e.key));
  }

  bool BloomMayContain(const Key& key) const {
    return bloom_->MayContain(hybrid::BloomKeyOf(key));
  }

  void MarkHot(const Key& key) const { hot_keys_.insert(key); }

  HybridConfig config_;
  size_t ops_since_merge_ = 0;
  mutable std::unordered_set<Key> hot_keys_;  // accesses since last merge
  DynamicStage dynamic_;
  StaticStage static_;
  BloomFilter* bloom_ = nullptr;
  size_t bloom_entries_ = 0;
  size_t bloom_capacity_;
  size_t size_ = 0;
  HybridMergeStats stats_;
};

}  // namespace met

#endif  // MET_HYBRID_HYBRID_INDEX_H_
