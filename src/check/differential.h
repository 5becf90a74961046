// met::check differential fuzz harness: replays deterministic random
// operation sequences through an index and a trusted oracle (std::map /
// sorted vector) simultaneously, comparing every return value, checking the
// structure's Validate() and its full ordered contents at checkpoints.
//
// The harness is shared by tests/property_test.cc (fixed seeds, CI) and
// tools/fuzz_ops.cc (rolling seeds, nightly; failing sequences are shrunk
// with MinimizeOps and printed as a replayable repro).
//
// Everything is deterministic in (seed, key set): a failure report of
// "structure X, keys Y, seed Z" replays exactly.
#ifndef MET_CHECK_DIFFERENTIAL_H_
#define MET_CHECK_DIFFERENTIAL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/index_api.h"
#include "common/random.h"
#include "keys/keygen.h"

namespace met {
namespace check {

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

struct DiffOp {
  enum Kind : uint8_t {
    kInsert,          // Insert (fails on duplicate)
    kInsertOrAssign,  // upsert
    kErase,
    kFind,
    kUpdate,  // assign only if present
    kScan,    // ordered scan of scan_len values from lower_bound(key)
    kNumKinds,
  };

  Kind kind;
  uint32_t key_index;  // into the key universe (mod size)
  uint32_t scan_len;
  uint64_t value;
};

inline const char* DiffOpName(DiffOp::Kind k) {
  switch (k) {
    case DiffOp::kInsert: return "insert";
    case DiffOp::kInsertOrAssign: return "insert_or_assign";
    case DiffOp::kErase: return "erase";
    case DiffOp::kFind: return "find";
    case DiffOp::kUpdate: return "update";
    case DiffOp::kScan: return "scan";
    default: return "?";
  }
}

/// Deterministic op sequence: a read/write mix over `num_keys` keys. Values
/// are 48-bit so reserved sentinels (e.g. HybridIndex's kTombstone) never
/// collide with a stored value.
inline std::vector<DiffOp> GenOps(uint64_t seed, size_t n, size_t num_keys) {
  Random rng(seed);
  std::vector<DiffOp> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t r = rng.Uniform(100);
    DiffOp::Kind kind;
    if (r < 30) kind = DiffOp::kInsert;
    else if (r < 40) kind = DiffOp::kInsertOrAssign;
    else if (r < 55) kind = DiffOp::kErase;
    else if (r < 75) kind = DiffOp::kFind;
    else if (r < 85) kind = DiffOp::kUpdate;
    else kind = DiffOp::kScan;
    ops.push_back({kind, static_cast<uint32_t>(rng.Uniform(num_keys)),
                   static_cast<uint32_t>(1 + rng.Uniform(64)),
                   rng.Next() & 0xFFFFFFFFFFFFull});
  }
  return ops;
}

/// Mixed key universe: emails + URLs (shared prefixes, varied lengths) +
/// 8-byte big-endian integers, deduplicated. Deterministic in `seed`.
inline std::vector<std::string> DiffKeys(size_t n, uint64_t seed) {
  std::vector<std::string> keys = GenEmails(n / 3 + 1, seed);
  std::vector<std::string> urls = GenUrls(n / 3 + 1, seed + 1);
  std::vector<std::string> ints =
      ToStringKeys(GenRandomInts(n - 2 * (n / 3), seed + 2));
  keys.insert(keys.end(), urls.begin(), urls.end());
  keys.insert(keys.end(), ints.begin(), ints.end());
  SortUnique(&keys);
  return keys;
}

struct DiffOptions {
  /// Validate() + full-content comparison cadence (always runs once at end).
  size_t check_every = 8192;
};

struct DiffResult {
  bool ok = true;
  size_t failed_op = static_cast<size_t>(-1);
  std::string message;

  explicit operator bool() const { return ok; }
};

/// Renders a failing sequence as one op per line for repro reports.
inline std::string OpsToString(const std::vector<DiffOp>& ops,
                               const std::vector<std::string>& keys) {
  std::ostringstream os;
  for (size_t i = 0; i < ops.size(); ++i) {
    const DiffOp& op = ops[i];
    os << "  [" << i << "] " << DiffOpName(op.kind) << " key#"
       << op.key_index % keys.size();
    if (op.kind == DiffOp::kScan) os << " len=" << op.scan_len;
    else if (op.kind != DiffOp::kErase && op.kind != DiffOp::kFind)
      os << " value=" << op.value;
    os << "\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Validate() detection (not every index exposes one; HybridDiffAdapter adds
// the stage validators to HybridIndex's own)
// ---------------------------------------------------------------------------

template <typename T, typename = void>
struct HasValidate : std::false_type {};
template <typename T>
struct HasValidate<T, std::void_t<decltype(std::declval<const T&>().Validate(
                          std::declval<std::ostream&>()))>> : std::true_type {
};

template <typename T>
bool ValidateIfAvailable(const T& t, std::ostream& os) {
  if constexpr (HasValidate<T>::value) {
    return t.Validate(os);
  } else {
    (void)t;
    (void)os;
    return true;
  }
}

// ---------------------------------------------------------------------------
// Dynamic structures (BTree / SkipList / Art / Masstree / HybridIndex):
// uniform Insert / InsertOrAssign / Lookup / Update / Erase / Scan / size API.
// ---------------------------------------------------------------------------

/// Validate() + exhaustive comparison: every oracle entry findable with the
/// right value, sizes equal, and a full ordered scan returning the oracle's
/// values in oracle order.
template <typename Index>
std::string DynamicCheckpoint(Index& index,
                              const std::map<std::string, uint64_t>& oracle) {
  std::ostringstream verr;
  if (!ValidateIfAvailable(index, verr))
    return "Validate() failed:\n" + verr.str();
  if (index.size() != oracle.size()) {
    std::ostringstream os;
    os << "size() == " << index.size() << ", oracle holds " << oracle.size();
    return os.str();
  }
  for (const auto& [k, v] : oracle) {
    uint64_t got = 0;
    if (!index.Lookup(k, &got)) return "Find misses oracle key " + k;
    if (got != v) {
      std::ostringstream os;
      os << "Find(" << k << ") == " << got << ", oracle holds " << v;
      return os.str();
    }
  }
  std::vector<uint64_t> got_vals;
  index.Scan(std::string(), oracle.size() + 1, &got_vals);
  if (got_vals.size() != oracle.size())
    return "full scan yields " + std::to_string(got_vals.size()) +
           " values, oracle holds " + std::to_string(oracle.size());
  size_t i = 0;
  for (const auto& [k, v] : oracle) {
    if (got_vals[i] != v) {
      std::ostringstream os;
      os << "full scan value [" << i << "] == " << got_vals[i]
         << ", oracle (key " << k << ") holds " << v;
      return os.str();
    }
    ++i;
  }
  return std::string();
}

template <typename Index>
DiffResult RunDynamicOps(Index& index, const std::vector<std::string>& keys,
                         const std::vector<DiffOp>& ops,
                         const DiffOptions& opt = {}) {
  DiffResult res;
  std::map<std::string, uint64_t> oracle;
  auto fail = [&](size_t i, std::string msg) {
    res.ok = false;
    res.failed_op = i;
    res.message = std::move(msg);
  };
  auto mismatch = [&](size_t i, const DiffOp& op, const std::string& k,
                      bool got, bool want) {
    std::ostringstream os;
    os << DiffOpName(op.kind) << "(" << k << ") returned " << got
       << ", oracle says " << want;
    fail(i, os.str());
  };

  for (size_t i = 0; i < ops.size() && res.ok; ++i) {
    const DiffOp& op = ops[i];
    const std::string& k = keys[op.key_index % keys.size()];
    switch (op.kind) {
      case DiffOp::kInsert: {
        bool got = index.Insert(k, op.value);
        bool want = oracle.emplace(k, op.value).second;
        if (got != want) mismatch(i, op, k, got, want);
        break;
      }
      case DiffOp::kInsertOrAssign:
        index.InsertOrAssign(k, op.value);
        oracle[k] = op.value;
        break;
      case DiffOp::kErase: {
        bool got = index.Erase(k);
        bool want = oracle.erase(k) > 0;
        if (got != want) mismatch(i, op, k, got, want);
        break;
      }
      case DiffOp::kFind: {
        uint64_t got_v = 0;
        bool got = index.Lookup(k, &got_v);
        auto it = oracle.find(k);
        bool want = it != oracle.end();
        if (got != want) {
          mismatch(i, op, k, got, want);
        } else if (got && got_v != it->second) {
          std::ostringstream os;
          os << "find(" << k << ") == " << got_v << ", oracle holds "
             << it->second;
          fail(i, os.str());
        }
        break;
      }
      case DiffOp::kUpdate: {
        bool got = index.Update(k, op.value);
        auto it = oracle.find(k);
        bool want = it != oracle.end();
        if (want) it->second = op.value;
        if (got != want) mismatch(i, op, k, got, want);
        break;
      }
      case DiffOp::kScan: {
        std::vector<uint64_t> got_vals;
        index.Scan(k, op.scan_len, &got_vals);
        std::vector<uint64_t> want_vals;
        for (auto it = oracle.lower_bound(k);
             it != oracle.end() && want_vals.size() < op.scan_len; ++it)
          want_vals.push_back(it->second);
        if (got_vals != want_vals) {
          std::ostringstream os;
          os << "scan(" << k << ", " << op.scan_len << ") yields "
             << got_vals.size() << " values, oracle says "
             << want_vals.size();
          if (got_vals.size() == want_vals.size()) os << " (values differ)";
          fail(i, os.str());
        }
        break;
      }
      default:
        break;
    }
    if (res.ok && index.size() != oracle.size()) {
      std::ostringstream os;
      os << "size() == " << index.size() << " after "
         << DiffOpName(op.kind) << ", oracle holds " << oracle.size();
      fail(i, os.str());
    }
    if (res.ok &&
        ((i + 1) % opt.check_every == 0 || i + 1 == ops.size())) {
      std::string err = DynamicCheckpoint(index, oracle);
      if (!err.empty()) fail(i, "checkpoint: " + err);
    }
  }
  return res;
}

/// Gives a HybridIndex instantiation the harness API plus a Validate()
/// composed of the index's own merge-state validator (check/hybrid_check.h)
/// and the two stage validators, so every merge is followed by a structural
/// check at the next checkpoint. A background merge may still be in flight
/// there: the validators only read. Uses dependent names only — callers
/// provide the hybrid type and config.
template <typename Hybrid>
class HybridDiffAdapter {
 public:
  template <typename Config>
  explicit HybridDiffAdapter(const Config& cfg) : index_(cfg) {}

  bool Insert(const std::string& k, uint64_t v) { return index_.Insert(k, v); }
  void InsertOrAssign(const std::string& k, uint64_t v) {
    // HybridIndex has no native upsert (the uniqueness check spans both
    // stages); Insert-else-Update is equivalent for a unique index.
    if (!index_.Insert(k, v)) index_.Update(k, v);
  }
  bool Lookup(const std::string& k, uint64_t* v) const {
    return index_.Lookup(k, v);
  }
  bool Update(const std::string& k, uint64_t v) { return index_.Update(k, v); }
  bool Erase(const std::string& k) { return index_.Erase(k); }
  size_t Scan(const std::string& k, size_t n,
              std::vector<uint64_t>* out) const {
    return index_.Scan(k, n, out);
  }
  size_t size() const { return index_.size(); }

  bool Validate(std::ostream& os) const {
    bool ok = index_.Validate(os);
    if (!ValidateIfAvailable(index_.dynamic_stage().tree(), os)) ok = false;
    if (!ValidateIfAvailable(index_.static_stage(), os)) ok = false;
    return ok;
  }

 private:
  mutable Hybrid index_;  // stage accessors are non-const
};

// ---------------------------------------------------------------------------
// Static merge structures (CompactBTree / CompressedBTree): ops are batched
// (erase => tombstone, last write wins) and applied to the oracle's merged
// state, which the tree is rebuilt from through BuildFrom, the hybrid
// drain's bulk builder; reads are checked against the merged state.
// ---------------------------------------------------------------------------

template <typename StaticTree>
DiffResult RunStaticMergeOps(StaticTree& tree,
                             const std::vector<std::string>& keys,
                             const std::vector<DiffOp>& ops,
                             size_t batch_ops = 2048) {
  using Entry = typename StaticTree::Entry;
  DiffResult res;
  std::map<std::string, uint64_t> merged;  // state the tree has absorbed
  std::map<std::string, Entry> pending;    // next merge batch, last wins
  auto fail = [&](size_t i, std::string msg) {
    res.ok = false;
    res.failed_op = i;
    res.message = std::move(msg);
  };

  auto flush = [&](size_t i) {
    if (pending.empty()) return;
    for (const auto& kv : pending) {
      if (kv.second.deleted) merged.erase(kv.first);
      else merged[kv.first] = kv.second.value;
    }
    pending.clear();
    tree.BuildFrom(merged.size(), [&merged](auto&& emit) {
      for (const auto& [k, v] : merged) emit(k, v);
    });

    std::ostringstream verr;
    if (!ValidateIfAvailable(tree, verr)) {
      fail(i, "Validate() failed after merge:\n" + verr.str());
      return;
    }
    if (tree.size() != merged.size()) {
      std::ostringstream os;
      os << "size() == " << tree.size() << " after merge, oracle holds "
         << merged.size();
      fail(i, os.str());
      return;
    }
    for (const auto& [k, v] : merged) {
      uint64_t got = 0;
      if (!tree.Lookup(k, &got) || got != v) {
        fail(i, "post-merge Find mismatch on key " + k);
        return;
      }
    }
    std::vector<uint64_t> got_vals;
    tree.Scan(std::string(), merged.size() + 1, &got_vals);
    std::vector<uint64_t> want_vals;
    for (const auto& kv : merged) want_vals.push_back(kv.second);
    if (got_vals != want_vals) fail(i, "post-merge full scan diverges");
  };

  for (size_t i = 0; i < ops.size() && res.ok; ++i) {
    const DiffOp& op = ops[i];
    const std::string& k = keys[op.key_index % keys.size()];
    switch (op.kind) {
      case DiffOp::kInsert:
      case DiffOp::kInsertOrAssign:
      case DiffOp::kUpdate:
        pending[k] = Entry{k, op.value, false};
        break;
      case DiffOp::kErase:
        pending[k] = Entry{k, 0, true};
        break;
      case DiffOp::kFind: {
        uint64_t got_v = 0;
        bool got = tree.Lookup(k, &got_v);
        auto it = merged.find(k);
        bool want = it != merged.end();
        if (got != want || (got && got_v != it->second)) {
          std::ostringstream os;
          os << "find(" << k << ") == " << got << "/" << got_v
             << ", merged oracle says " << want;
          fail(i, os.str());
        }
        break;
      }
      case DiffOp::kScan: {
        std::vector<uint64_t> got_vals;
        tree.Scan(k, op.scan_len, &got_vals);
        std::vector<uint64_t> want_vals;
        for (auto it = merged.lower_bound(k);
             it != merged.end() && want_vals.size() < op.scan_len; ++it)
          want_vals.push_back(it->second);
        if (got_vals != want_vals) {
          std::ostringstream os;
          os << "scan(" << k << ", " << op.scan_len << ") diverges from the "
             << "merged oracle";
          fail(i, os.str());
        }
        break;
      }
      default:
        break;
    }
    if (res.ok && ((i + 1) % batch_ops == 0 || i + 1 == ops.size())) flush(i);
  }
  return res;
}

// ---------------------------------------------------------------------------
// ddmin-lite sequence minimization
// ---------------------------------------------------------------------------

/// Shrinks a failing op sequence by removing chunks (halving granularity)
/// while `still_fails` keeps returning true. `max_runs` bounds the replay
/// count, so minimization cost stays proportional to sequence length.
inline std::vector<DiffOp> MinimizeOps(
    std::vector<DiffOp> ops,
    const std::function<bool(const std::vector<DiffOp>&)>& still_fails,
    size_t max_runs = 768) {
  size_t runs = 0;
  bool progress = true;
  while (progress && ops.size() > 1 && runs < max_runs) {
    progress = false;
    for (size_t chunk = std::max<size_t>(1, ops.size() / 2);
         runs < max_runs; chunk /= 2) {
      for (size_t start = 0; start < ops.size() && runs < max_runs;) {
        std::vector<DiffOp> cand;
        cand.reserve(ops.size() - chunk);
        cand.insert(cand.end(), ops.begin(), ops.begin() + start);
        if (start + chunk < ops.size())
          cand.insert(cand.end(), ops.begin() + start + chunk, ops.end());
        ++runs;
        if (!cand.empty() && still_fails(cand)) {
          ops = std::move(cand);
          progress = true;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return ops;
}

}  // namespace check
}  // namespace met

#endif  // MET_CHECK_DIFFERENTIAL_H_
