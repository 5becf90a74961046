// Validator for the hybrid index's merge state machine (see
// src/hybrid/hybrid_index.h and DESIGN.md, "Owner-merged hybrid index").
// Include this header in any TU that calls HybridIndex::Validate() with
// MET_CHECK_ENABLED. Runs on the owner thread; a background drain may be in
// flight (it only reads the frozen and static stages, as this does).
#ifndef MET_CHECK_HYBRID_CHECK_H_
#define MET_CHECK_HYBRID_CHECK_H_

#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "check/check.h"
#include "hybrid/hybrid_index.h"
#include "hybrid/merge_core.h"

namespace met {

/// Merge state machine, tombstone discipline and size accounting.
template <typename Key, typename DynamicStage, typename StaticStage>
bool HybridIndex<Key, DynamicStage, StaticStage>::ValidateImpl(
    std::ostream& os) const {
  check::Reporter rep(os, "HybridIndex");
  MET_CHECK_THAT(rep, static_ != nullptr, "");
  MET_CHECK_THAT(rep, dynamic_ != nullptr, "");
  if (!rep.ok()) return false;
  // Inline merges freeze and adopt within one call, so only a background
  // merge is ever observed in flight.
  MET_CHECK_THAT(rep, (frozen_ != nullptr) == (handoff_ != nullptr),
                 "frozen stage " << (frozen_ != nullptr ? "present" : "absent")
                                 << " but a merge is "
                                 << (handoff_ != nullptr ? "" : "not ")
                                 << "in flight");
  if (handoff_ != nullptr && handoff_->done.load())
    MET_CHECK_THAT(rep, handoff_->HasResult(),
                   "drain flagged done before storing its result");

  // Stage contents: each stage sorted strictly ascending; the static stage
  // holds no tombstone; a dynamic tombstone shadows a live entry below it;
  // the logical live count equals size().
  using Pairs = std::vector<std::pair<Key, Value>>;
  auto collect = [](const auto& stage) {
    Pairs out;
    stage.ScanPairs(hybrid::MinKey<Key>(), stage.size(), &out);
    return out;
  };
  auto sorted = [&rep](const char* name, const Pairs& pairs) {
    for (size_t i = 1; i < pairs.size(); ++i)
      MET_CHECK_THAT(rep, pairs[i - 1].first < pairs[i].first,
                     name << " not strictly sorted at position " << i << " ("
                          << check::KeyToDebugString(pairs[i].first) << ")");
  };
  Pairs act = collect(*dynamic_);
  Pairs fro = frozen_ != nullptr ? collect(*frozen_) : Pairs();
  Pairs sta = collect(*static_);
  sorted("active", act);
  sorted("frozen", fro);
  sorted("static", sta);

  std::map<Key, Value> below;  // frozen over static
  for (const auto& [k, v] : sta) {
    MET_CHECK_THAT(rep, v != kTombstone,
                   "tombstone in static stage for key "
                       << check::KeyToDebugString(k));
    below[k] = v;
  }
  for (const auto& [k, v] : fro) {
    if (v == kTombstone)
      MET_CHECK_THAT(rep, below.count(k) > 0,
                     "frozen tombstone shadows nothing: "
                         << check::KeyToDebugString(k));
    below[k] = v;
  }
  std::map<Key, Value> merged = below;  // active over (frozen over static)
  for (const auto& [k, v] : act) {
    if (v == kTombstone) {
      auto it = below.find(k);
      MET_CHECK_THAT(rep, it != below.end() && it->second != kTombstone,
                     "active tombstone shadows nothing: "
                         << check::KeyToDebugString(k));
    }
    merged[k] = v;
  }
  size_t live = 0;
  for (const auto& kv : merged) live += kv.second != kTombstone ? 1 : 0;
  MET_CHECK_THAT(rep, live == size_,
                 "merged live count " << live << ", size() " << size_);
  return rep.ok();
}

}  // namespace met

#endif  // MET_CHECK_HYBRID_CHECK_H_
