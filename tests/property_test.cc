// Differential property tests: seeded random operation sequences replayed
// through every index family against a trusted oracle, with structural
// Validate() checks at checkpoints (see src/check/differential.h and
// DESIGN.md, "Invariants & verification").
//
// This target compiles with MET_CHECK=1 (tests/CMakeLists.txt), so
// Validate() is live even in release CI builds. Longer runs:
//
//   MET_FUZZ_OPS=1000000 MET_FUZZ_SEEDS=1,2,3 ctest -R property
//
// Seeds that ever exposed a bug are pinned in kRegressionSeeds below so the
// exact sequence replays forever.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include <algorithm>

#include "art/art.h"
#include "btree/btree.h"
#include "check/btree_check.h"
#include "common/index_api.h"
#include "check/compact_btree_check.h"
#include "check/compressed_btree_check.h"
#include "check/differential.h"
#include "check/hybrid_check.h"
#include "check/skiplist_check.h"
#include "common/random.h"
#include "fst/fst.h"
#include "hybrid/hybrid.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"
#include "masstree/masstree.h"
#include "skiplist/skiplist.h"
#include "surf/surf.h"

namespace met {
namespace {

using check::DiffKeys;
using check::DiffOp;
using check::DiffOptions;
using check::DiffResult;
using check::GenOps;
using check::OpsToString;
using check::RunDynamicOps;
using check::RunStaticMergeOps;

// Seeds that reproduced a historical failure; never remove entries.
constexpr uint64_t kRegressionSeeds[] = {0x5eed0001};

size_t OpsPerStructure() {
  const char* s = std::getenv("MET_FUZZ_OPS");
  size_t n = s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
  return n > 0 ? n : 100000;
}

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds;
  if (const char* s = std::getenv("MET_FUZZ_SEEDS")) {
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 0));
    }
  }
  if (seeds.empty()) seeds = {0xC0FFEEull, 42};
  for (uint64_t r : kRegressionSeeds) seeds.push_back(r);
  return seeds;
}

template <typename Factory>
void DynamicDifferential(Factory make_index) {
  size_t n_ops = OpsPerStructure();
  for (uint64_t seed : Seeds()) {
    auto index = make_index();
    std::vector<std::string> keys = DiffKeys(4096, seed);
    std::vector<DiffOp> ops = GenOps(seed, n_ops, keys.size());
    DiffResult res = RunDynamicOps(index, keys, ops);
    ASSERT_TRUE(res.ok) << "seed " << seed << " diverged at op "
                        << res.failed_op << ": " << res.message;
  }
}

TEST(PropertyBTree, Differential) {
  DynamicDifferential([] { return BTree<std::string>(); });
}

TEST(PropertySkipList, Differential) {
  DynamicDifferential([] { return SkipList<std::string>(); });
}

TEST(PropertyArt, Differential) {
  DynamicDifferential([] { return Art(); });
}

TEST(PropertyMasstree, Differential) {
  DynamicDifferential([] { return Masstree(); });
}

// ---------------------------------------------------------------------------
// Hybrid indexes: check::HybridDiffAdapter composes a Validate() out of the
// index's merge-state validator and the two stage validators, so every
// automatic merge is followed by a full structural check at the next
// checkpoint.
// ---------------------------------------------------------------------------

HybridConfig HybridFuzzConfig() {
  HybridConfig cfg;
  cfg.min_merge_entries = 512;  // merge often under fuzz
  return cfg;
}

TEST(PropertyHybridBTree, Differential) {
  DynamicDifferential([] {
    return check::HybridDiffAdapter<HybridBTree<std::string>>(
        HybridFuzzConfig());
  });
}

TEST(PropertyHybridCompressedBTree, Differential) {
  DynamicDifferential([] {
    return check::HybridDiffAdapter<HybridCompressedBTree<std::string>>(
        HybridFuzzConfig());
  });
}

TEST(PropertyHybridArt, Differential) {
  DynamicDifferential(
      [] { return check::HybridDiffAdapter<HybridArt>(HybridFuzzConfig()); });
}

// kMergeCold keeps hot keys dynamic across merges; tombstone handling and
// the hot-set bookkeeping take different paths than kMergeAll, so the
// strategy gets its own differential coverage.
HybridConfig HybridColdFuzzConfig() {
  HybridConfig cfg = HybridFuzzConfig();
  cfg.strategy = HybridConfig::MergeStrategy::kMergeCold;
  return cfg;
}

TEST(PropertyHybridBTreeCold, Differential) {
  DynamicDifferential([] {
    return check::HybridDiffAdapter<HybridBTree<std::string>>(
        HybridColdFuzzConfig());
  });
}

TEST(PropertyHybridArtCold, Differential) {
  DynamicDifferential([] {
    return check::HybridDiffAdapter<HybridArt>(HybridColdFuzzConfig());
  });
}

// Background merges: the drain runs on its own thread and is adopted at the
// top of a later call, so checkpoints may land with a merge in flight (the
// validator then checks the frozen stage too). PropertyHybridBTree above is
// the same index with the drain inline.
HybridConfig HybridBackgroundFuzzConfig() {
  HybridConfig cfg = HybridFuzzConfig();
  cfg.background_merge = true;
  return cfg;
}

TEST(PropertyHybridBTreeBackground, Differential) {
  DynamicDifferential([] {
    return check::HybridDiffAdapter<HybridBTree<std::string>>(
        HybridBackgroundFuzzConfig());
  });
}

TEST(PropertyHybridArtBackground, Differential) {
  DynamicDifferential([] {
    return check::HybridDiffAdapter<HybridArt>(HybridBackgroundFuzzConfig());
  });
}

// Non-unique mode differential: Insert must replace in place (the harness's
// unique-mode runner can't express that, so a dedicated loop checks values
// and exact sizes against the oracle across merges).
template <typename Index>
void NonUniqueDifferential(uint64_t seed) {
  size_t n_ops = std::min<size_t>(OpsPerStructure(), 40000);
  std::map<std::string, uint64_t> ref;
  std::vector<std::string> keys = DiffKeys(1024, seed);
  Random rng(seed ^ 0xD1FF);
  HybridConfig cfg;
  cfg.min_merge_entries = 512;
  cfg.unique = false;
  Index index(cfg);
  for (size_t i = 0; i < n_ops; ++i) {
    const std::string& k = keys[rng.Uniform(keys.size())];
    switch (rng.Uniform(4)) {
      case 0:
        ASSERT_TRUE(index.Insert(k, i));  // non-unique: always succeeds
        ref[k] = i;
        break;
      case 1:
        ASSERT_EQ(index.Erase(k), ref.erase(k) > 0) << "op " << i;
        break;
      default: {
        uint64_t v = 0;
        bool found = index.Lookup(k, &v);
        auto it = ref.find(k);
        ASSERT_EQ(found, it != ref.end()) << "op " << i;
        if (found) {
          ASSERT_EQ(v, it->second) << "op " << i;
        }
      }
    }
    if (i % 4096 == 0) {
      ASSERT_EQ(index.size(), ref.size()) << "op " << i;
    }
  }
  ASSERT_EQ(index.size(), ref.size());
}

TEST(PropertyHybridBTreeNonUnique, Differential) {
  for (uint64_t seed : Seeds())
    NonUniqueDifferential<HybridBTree<std::string>>(seed);
}

// ---------------------------------------------------------------------------
// Static merge structures
// ---------------------------------------------------------------------------

template <typename Tree>
void StaticDifferential() {
  size_t n_ops = OpsPerStructure();
  for (uint64_t seed : Seeds()) {
    Tree tree;
    std::vector<std::string> keys = DiffKeys(4096, seed);
    std::vector<DiffOp> ops = GenOps(seed, n_ops, keys.size());
    DiffResult res = RunStaticMergeOps(tree, keys, ops);
    ASSERT_TRUE(res.ok) << "seed " << seed << " diverged at op "
                        << res.failed_op << ": " << res.message;
  }
}

TEST(PropertyCompactBTree, Differential) {
  StaticDifferential<CompactBTree<std::string>>();
}

TEST(PropertyCompressedBTree, Differential) {
  StaticDifferential<CompressedBTree<std::string>>();
}

// ---------------------------------------------------------------------------
// FST: build from a key set, then random point/range probes against binary
// search over the sorted keys. Validate() already performs the full ordered
// iterator + Lookup round trip.
// ---------------------------------------------------------------------------

std::string MutateKey(const std::string& key, Random* rng) {
  std::string k = key;
  switch (rng->Uniform(3)) {
    case 0:
      if (!k.empty()) {
        k[rng->Uniform(k.size())] =
            static_cast<char>(rng->Uniform(256));
        break;
      }
      [[fallthrough]];
    case 1:
      k.push_back(static_cast<char>(rng->Uniform(256)));
      break;
    default:
      if (!k.empty()) k.pop_back();
      break;
  }
  return k;
}

void FstDifferential(FstConfig::Mode mode, uint64_t seed, size_t probes) {
  std::vector<std::string> keys = DiffKeys(20000, seed);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;

  FstConfig cfg;
  cfg.mode = mode;
  Fst fst;
  fst.Build(keys, values, cfg);

  std::ostringstream err;
  ASSERT_TRUE(fst.Validate(err)) << "seed " << seed << "\n" << err.str();
  EXPECT_EQ(fst.num_keys(), keys.size());

  bool full = mode == FstConfig::Mode::kFullKey;
  Random rng(seed ^ 0xF57);
  for (size_t p = 0; p < probes; ++p) {
    switch (rng.Uniform(3)) {
      case 0: {  // stored key
        size_t i = rng.Uniform(keys.size());
        uint64_t v = ~0ull;
        ASSERT_TRUE(fst.Lookup(keys[i], &v))
            << "seed " << seed << ": stored key missed: " << keys[i];
        ASSERT_EQ(v, values[i]) << "seed " << seed << " key " << keys[i];
        break;
      }
      case 1: {  // likely-absent key (exact in full-key mode only)
        std::string k = MutateKey(keys[rng.Uniform(keys.size())], &rng);
        bool stored =
            std::binary_search(keys.begin(), keys.end(), k);
        if (full) {
          ASSERT_EQ(fst.Lookup(k), stored)
              << "seed " << seed << " probe key " << k;
        } else if (stored) {
          ASSERT_TRUE(fst.Lookup(k)) << "seed " << seed << " key " << k;
        }
        break;
      }
      default: {  // range count over [lo, hi)
        std::string lo = keys[rng.Uniform(keys.size())];
        std::string hi = keys[rng.Uniform(keys.size())];
        if (rng.Uniform(2) == 0) lo = MutateKey(lo, &rng);
        if (rng.Uniform(2) == 0) hi = MutateKey(hi, &rng);
        if (hi < lo) std::swap(lo, hi);
        uint64_t want =
            std::lower_bound(keys.begin(), keys.end(), hi) -
            std::lower_bound(keys.begin(), keys.end(), lo);
        uint64_t got = fst.CountRange(lo, hi);
        if (full) {
          ASSERT_EQ(got, want)
              << "seed " << seed << " range [" << lo << ", " << hi << ")";
        } else {
          // Truncated tries compare probe endpoints against stored
          // *prefixes*. An endpoint lying strictly between a key's stored
          // prefix and its full form shifts that key across the boundary in
          // either direction, so each endpoint contributes at most one key
          // of error either way.
          ASSERT_GE(got + 2, want)
              << "seed " << seed << " range [" << lo << ", " << hi << ")";
          ASSERT_LE(got, want + 2)
              << "seed " << seed << " range [" << lo << ", " << hi << ")";
        }
        break;
      }
    }
  }
}

TEST(PropertyFst, FullKeyDifferential) {
  for (uint64_t seed : Seeds()) {
    FstDifferential(FstConfig::Mode::kFullKey, seed, 20000);
  }
}

TEST(PropertyFst, TruncatedDifferential) {
  for (uint64_t seed : Seeds()) {
    FstDifferential(FstConfig::Mode::kMinUniquePrefix, seed, 20000);
  }
}

// ---------------------------------------------------------------------------
// SuRF: one-sided-error guarantees against the original key set.
// ---------------------------------------------------------------------------

void SurfDifferential(const SurfConfig& cfg, uint64_t seed) {
  std::vector<std::string> keys = DiffKeys(15000, seed);
  Surf surf;
  surf.Build(keys, cfg);

  std::ostringstream err;
  ASSERT_TRUE(surf.Validate(err)) << "seed " << seed << "\n" << err.str();

  // No false negatives, ever.
  for (const std::string& k : keys) {
    ASSERT_TRUE(surf.MayContain(k)) << "seed " << seed << " key " << k;
  }

  Random rng(seed ^ 0x50F);
  size_t absent = 0, false_positive = 0;
  std::vector<std::string> absent_probes;
  for (size_t p = 0; p < 10000; ++p) {
    std::string k = MutateKey(keys[rng.Uniform(keys.size())], &rng);
    if (std::binary_search(keys.begin(), keys.end(), k)) continue;
    ++absent;
    absent_probes.push_back(std::move(k));
    if (surf.MayContain(absent_probes.back())) ++false_positive;
  }
  if (cfg.hash_suffix_bits >= 8 && absent > 1000) {
    // A hash suffix checks every absent key, so 8+ bits push the point FPR
    // below 1/256; 10% is a generous, deterministic ceiling (mutated keys
    // often share long stored prefixes).
    EXPECT_LT(false_positive * 10, absent)
        << "seed " << seed << ": point FPR "
        << static_cast<double>(false_positive) / absent;
  } else if (cfg.real_suffix_bits > 0 && cfg.hash_suffix_bits == 0 &&
             absent > 1000) {
    // A real suffix only rejects probes that diverge at the byte right
    // after the stored prefix, so its point FPR depends on where the
    // mutation lands (most of ours hit deeper bytes). The checkable
    // guarantee: the suffix prunes strictly on top of the bare trie, so it
    // never admits a probe the Base config rejects.
    Surf base;
    base.Build(keys, SurfConfig::Base());
    size_t base_fp = 0;
    for (const std::string& k : absent_probes) {
      if (base.MayContain(k)) ++base_fp;
    }
    EXPECT_LE(false_positive, base_fp)
        << "seed " << seed
        << ": real suffix admitted probes the bare trie rejects";
  }

  for (size_t p = 0; p < 3000; ++p) {
    std::string lo = keys[rng.Uniform(keys.size())];
    std::string hi = keys[rng.Uniform(keys.size())];
    if (rng.Uniform(2) == 0) lo = MutateKey(lo, &rng);
    if (rng.Uniform(2) == 0) hi = MutateKey(hi, &rng);
    if (hi < lo) std::swap(lo, hi);
    // [lo, hi] inclusive bounds.
    uint64_t want = std::upper_bound(keys.begin(), keys.end(), hi) -
                    std::lower_bound(keys.begin(), keys.end(), lo);
    if (want > 0) {
      ASSERT_TRUE(surf.MayContainRange(lo, hi))
          << "seed " << seed << " range [" << lo << ", " << hi << "]";
    }
    uint64_t got = surf.Count(lo, hi);
    ASSERT_GE(got, want) << "seed " << seed << " range [" << lo << ", " << hi
                         << "] (Count must never under-count)";
    ASSERT_LE(got, want + 2)
        << "seed " << seed << " range [" << lo << ", " << hi << "]";
  }
}

TEST(PropertySurf, Base) {
  for (uint64_t seed : Seeds()) SurfDifferential(SurfConfig::Base(), seed);
}

TEST(PropertySurf, Hash8) {
  for (uint64_t seed : Seeds()) SurfDifferential(SurfConfig::Hash(8), seed);
}

TEST(PropertySurf, Real8) {
  for (uint64_t seed : Seeds()) SurfDifferential(SurfConfig::Real(8), seed);
}

// ---------------------------------------------------------------------------
// FST batch kernel: Fst::LookupBatch must replay any probe stream
// bit-identically to scalar Lookup — same found/value answers at every
// batch granularity, including chunks that split the stream unevenly.
// ---------------------------------------------------------------------------

void BatchDifferential(uint64_t seed) {
  std::vector<std::string> keys = DiffKeys(20000, seed);
  std::vector<uint64_t> values(keys.size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = i + 1;

  // Probe stream: stored keys, mutated likely-absent keys, one empty key.
  Random rng(seed ^ 0xBA7C);
  std::vector<std::string> probes;
  probes.reserve(8192);
  probes.emplace_back();
  while (probes.size() < 8192) {
    const std::string& k = keys[rng.Uniform(keys.size())];
    probes.push_back(rng.Uniform(2) == 0 ? k : MutateKey(k, &rng));
  }
  std::vector<std::string_view> views(probes.begin(), probes.end());
  const size_t n = views.size();
  constexpr size_t kChunks[] = {1, 7, 64, 256};

  for (auto mode : {FstConfig::Mode::kFullKey,
                    FstConfig::Mode::kMinUniquePrefix}) {
    FstConfig cfg;
    cfg.mode = mode;
    Fst fst;
    fst.Build(keys, values, cfg);
    std::vector<LookupResult> out(n);
    for (size_t chunk : kChunks) {
      for (size_t i = 0; i < n; i += chunk)
        fst.LookupBatch(&views[i], std::min(chunk, n - i), &out[i]);
      for (size_t i = 0; i < n; ++i) {
        uint64_t v = 0;
        bool found = fst.Lookup(views[i], &v);
        ASSERT_EQ(out[i].found, found)
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " chunk " << chunk << " probe " << i;
        if (found) {
          ASSERT_EQ(out[i].value, v)
              << "seed " << seed << " chunk " << chunk << " probe " << i;
        }
      }
    }
  }
}

TEST(PropertyBatch, BatchedMatchesScalar) {
  for (uint64_t seed : Seeds()) BatchDifferential(seed);
}

// ---------------------------------------------------------------------------
// LSM: upsert/read/seek/count differential with frequent flushes and
// compactions (tiny memtable / table sizes), Validate() at checkpoints.
// ---------------------------------------------------------------------------

void LsmDifferential(LsmFilterType filter, uint64_t seed, size_t n_ops) {
  LsmOptions opt;
  opt.dir = "/tmp/met_property_lsm_" + std::to_string(seed) + "_" +
            std::to_string(static_cast<int>(filter));
  opt.memtable_bytes = 32 << 10;
  opt.block_bytes = 1024;
  opt.sstable_target_bytes = 64 << 10;
  opt.level1_bytes = 256 << 10;
  opt.filter = filter;
  LsmTree tree(opt);

  bool exact_count = filter != LsmFilterType::kSurfHash &&
                     filter != LsmFilterType::kSurfReal;
  std::map<std::string, std::string> oracle;
  std::vector<std::string> keys = DiffKeys(2048, seed);
  std::vector<DiffOp> ops = GenOps(seed, n_ops, keys.size());

  auto validate = [&](size_t i) {
    std::ostringstream err;
    ASSERT_TRUE(tree.Validate(err))
        << "seed " << seed << " op " << i << "\n" << err.str();
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const DiffOp& op = ops[i];
    const std::string& k = keys[op.key_index % keys.size()];
    switch (op.kind) {
      case DiffOp::kInsert:
      case DiffOp::kInsertOrAssign:
      case DiffOp::kUpdate: {
        std::string v = "v" + std::to_string(op.value);
        ASSERT_TRUE(tree.Put(k, v).ok());
        oracle[k] = v;
        break;
      }
      case DiffOp::kErase:  // the engine has no deletes; probe instead
      case DiffOp::kFind: {
        std::string got_v;
        bool got = tree.Lookup(k, &got_v);
        auto it = oracle.find(k);
        ASSERT_EQ(got, it != oracle.end())
            << "seed " << seed << " op " << i << " Get(" << k << ")";
        if (got) {
          ASSERT_EQ(got_v, it->second)
              << "seed " << seed << " op " << i << " Get(" << k << ")";
        }
        break;
      }
      case DiffOp::kScan: {
        std::optional<std::string> got = tree.Seek(k);
        auto it = oracle.lower_bound(k);
        if (it == oracle.end()) {
          ASSERT_FALSE(got.has_value())
              << "seed " << seed << " op " << i << " Seek(" << k << ")";
        } else {
          ASSERT_TRUE(got.has_value())
              << "seed " << seed << " op " << i << " Seek(" << k << ")";
          ASSERT_EQ(*got, it->first)
              << "seed " << seed << " op " << i << " Seek(" << k << ")";
        }
        // Bounded Scan: scan_len rows from k, keys and values in order.
        std::vector<std::pair<std::string, std::string>> rows, want_rows;
        if (op.scan_len > 0) {
          tree.Scan(k, [&](std::string_view sk, std::string_view sv) {
            rows.emplace_back(sk, sv);
            return rows.size() < op.scan_len;
          });
        }
        for (auto oit = it;
             oit != oracle.end() && want_rows.size() < op.scan_len; ++oit)
          want_rows.emplace_back(*oit);
        ASSERT_EQ(rows, want_rows) << "seed " << seed << " op " << i
                                   << " Scan(" << k << ", " << op.scan_len
                                   << ")";
        const std::string& hk =
            keys[(op.key_index + op.scan_len) % keys.size()];
        std::string lo = k, hi = hk;
        if (hi < lo) std::swap(lo, hi);
        auto lo_it = oracle.lower_bound(lo);
        std::optional<std::string> want_first;
        if (lo_it != oracle.end() && lo_it->first <= hi)
          want_first = lo_it->first;
        ASSERT_EQ(tree.ClosedSeek(lo, hi), want_first)
            << "seed " << seed << " op " << i << " ClosedSeek(" << lo << ", "
            << hi << ")";
        if (exact_count) {
          uint64_t want = 0;
          for (auto oit = lo_it; oit != oracle.end() && oit->first <= hi;
               ++oit)
            ++want;
          ASSERT_EQ(tree.Count(lo, hi), want)
              << "seed " << seed << " op " << i << " Count(" << lo << ", "
              << hi << ")";
        }
        break;
      }
      default:
        break;
    }
    if ((i + 1) % 4096 == 0) validate(i);
  }

  ASSERT_TRUE(tree.Finish().ok());
  validate(ops.size());
  for (const auto& kv : oracle) {
    std::string got_v;
    ASSERT_TRUE(tree.Lookup(kv.first, &got_v))
        << "seed " << seed << " final sweep key " << kv.first;
    ASSERT_EQ(got_v, kv.second) << "seed " << seed << " key " << kv.first;
  }
}

TEST(PropertyLsm, NoFilter) {
  for (uint64_t seed : Seeds())
    LsmDifferential(LsmFilterType::kNone, seed, OpsPerStructure() / 4);
}

TEST(PropertyLsm, BloomFilter) {
  for (uint64_t seed : Seeds())
    LsmDifferential(LsmFilterType::kBloom, seed, OpsPerStructure() / 4);
}

TEST(PropertyLsm, SurfHashFilter) {
  for (uint64_t seed : Seeds())
    LsmDifferential(LsmFilterType::kSurfHash, seed, OpsPerStructure() / 4);
}

TEST(PropertyLsm, SurfRealFilter) {
  for (uint64_t seed : Seeds())
    LsmDifferential(LsmFilterType::kSurfReal, seed, OpsPerStructure() / 4);
}

// ---------------------------------------------------------------------------
// LSM crash/recovery: a durable tree with tiny thresholds (so WAL replay,
// flush commits and compactions all happen constantly) is crashed with
// SimulateCrash() at checkpoints and reopened; after each reopen the
// recovered contents must equal the oracle exactly — every SyncWal-acked
// write present with its latest value, and nothing else, enumerated through
// the Seek iterator so phantom keys are caught too.
// ---------------------------------------------------------------------------

void LsmCrashRecoverDifferential(uint64_t seed, size_t n_ops) {
  LsmOptions opt;
  opt.dir = "/tmp/met_property_lsm_crash_" + std::to_string(seed);
  opt.memtable_bytes = 8 << 10;
  opt.block_bytes = 512;
  opt.sstable_target_bytes = 16 << 10;
  opt.level1_bytes = 64 << 10;
  opt.wal_group_sync_bytes = 4 << 10;
  io::RemoveAllFiles(io::Env::Posix(), opt.dir);

  io::Status st;
  std::unique_ptr<LsmTree> tree = LsmTree::Open(opt, &st);
  ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();

  std::map<std::string, std::string> oracle;
  std::vector<std::string> keys = DiffKeys(1024, seed);
  std::vector<DiffOp> ops = GenOps(seed, n_ops, keys.size());
  Random rng(seed ^ 0xC4A5);

  auto verify_recovered = [&](size_t i) {
    // Full-content sweep: point-look up every oracle key, then enumerate
    // the tree through Seek to prove it holds nothing more.
    for (const auto& kv : oracle) {
      std::string v;
      ASSERT_TRUE(tree->Lookup(kv.first, &v))
          << "seed " << seed << " op " << i << ": acked key " << kv.first
          << " lost across crash/reopen";
      ASSERT_EQ(v, kv.second) << "seed " << seed << " op " << i << " key "
                              << kv.first;
    }
    std::string cursor;
    size_t enumerated = 0;
    while (std::optional<std::string> k = tree->Seek(cursor)) {
      ASSERT_TRUE(oracle.count(*k))
          << "seed " << seed << " op " << i << ": phantom key " << *k
          << " appeared after recovery";
      ++enumerated;
      cursor = *k + '\0';
    }
    ASSERT_EQ(enumerated, oracle.size()) << "seed " << seed << " op " << i;
    std::ostringstream err;
    ASSERT_TRUE(tree->Validate(err))
        << "seed " << seed << " op " << i << "\n" << err.str();
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const DiffOp& op = ops[i];
    const std::string& k = keys[op.key_index % keys.size()];
    switch (op.kind) {
      case DiffOp::kInsert:
      case DiffOp::kInsertOrAssign:
      case DiffOp::kUpdate: {
        std::string v = "v" + std::to_string(op.value) + "." +
                        std::to_string(i);
        io::Status ps = tree->Put(k, v);
        ASSERT_TRUE(ps.ok())
            << "seed " << seed << " op " << i << ": " << ps.ToString();
        oracle[k] = v;
        break;
      }
      default: {  // probe reads between crashes too
        std::string got_v;
        bool got = tree->Lookup(k, &got_v);
        auto it = oracle.find(k);
        ASSERT_EQ(got, it != oracle.end())
            << "seed " << seed << " op " << i << " Get(" << k << ")";
        if (got) {
          ASSERT_EQ(got_v, it->second) << "seed " << seed << " op " << i;
        }
        break;
      }
    }
    // Crash at irregular, seed-dependent points so the kill lands in every
    // phase: mid-memtable, right after a flush, mid-compaction cadence.
    if ((i + 1) % (1500 + rng.Uniform(1000)) == 0) {
      ASSERT_TRUE(tree->SyncWal().ok()) << "seed " << seed << " op " << i;
      tree->SimulateCrash();
      tree = LsmTree::Open(opt, &st);
      ASSERT_TRUE(st.ok())
          << "seed " << seed << " op " << i << ": " << st.ToString();
      verify_recovered(i);
    }
  }

  ASSERT_TRUE(tree->SyncWal().ok()) << "seed " << seed;
  tree->SimulateCrash();
  tree = LsmTree::Open(opt, &st);
  ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
  verify_recovered(ops.size());
  io::RemoveAllFiles(io::Env::Posix(), opt.dir);
}

TEST(PropertyLsm, CrashRecover) {
  for (uint64_t seed : Seeds())
    LsmCrashRecoverDifferential(seed, OpsPerStructure() / 8);
}

}  // namespace
}  // namespace met
