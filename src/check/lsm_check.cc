// met::check validator for the mini LSM engine (lsm/lsm.h).
//
// Metadata-only (no block I/O, so it is cheap and const): verifies the
// invariants the Get/Seek/Count paths navigate by.
//
// Checked invariants:
//  * per table: min_key <= max_key, a non-empty fence index with equally
//    sized key/offset/length columns, block first-keys strictly increasing
//    and bracketed by [min_key, max_key], offsets starting at 0 and each
//    block payload + its 4-byte CRC trailer ending where the next begins
//    (the last at data_bytes), at least one entry, an open file handle, a
//    quarantine set naming only real blocks, and a filter matching the
//    configured type (tables rebuilt over corrupt blocks run unfiltered);
//  * level 0: tables may overlap (newest last) — only per-table checks;
//  * levels >= 1: tables sorted by min_key and pairwise disjoint
//    (prev.max_key < next.min_key);
//  * per-level compaction cursors sized to the level list;
//  * block cache: the hash index holds exactly the occupied slots, each
//    reachable from its (table id, block) probe position; free-list
//    slots are unoccupied; an occupied slot's offsets lie in its payload,
//    which fits its buffer.
//
// This TU defines MET_CHECK so the nested Surf::Validate() calls on real
// SuRF filters stay live regardless of the build type of the library.
#ifndef MET_CHECK
#define MET_CHECK 1
#endif

#include <string>

#include "check/check.h"
#include "lsm/lsm.h"

namespace met {

bool LsmTree::CheckValidate(std::ostream& os) const {
  check::Reporter rep(os, "LsmTree");

  auto check_table = [&](const SsTable& t, size_t level, size_t idx) {
    std::ostringstream tag_stream;
    tag_stream << "L" << level << " table " << idx << " (id " << t.id << ")";
    std::string tag = tag_stream.str();

    MET_CHECK_THAT(rep, !(t.max_key < t.min_key),
                   tag << " min_key " << check::KeyToDebugString(t.min_key)
                       << " > max_key " << check::KeyToDebugString(t.max_key));
    MET_CHECK_THAT(rep, t.num_entries > 0, tag << " holds no entries");
    if (!crashed_) {
      MET_CHECK_THAT(rep, t.file != nullptr, tag << " has no open file");
    }

    size_t blocks = t.block_first_key.size();
    MET_CHECK_THAT(rep,
                   blocks > 0 && t.block_offset.size() == blocks &&
                       t.block_length.size() == blocks,
                   tag << " fence index columns " << blocks << "/"
                       << t.block_offset.size() << "/"
                       << t.block_length.size());
    if (blocks > 0 && t.block_offset.size() == blocks &&
        t.block_length.size() == blocks) {
      MET_CHECK_THAT(rep, t.block_offset[0] == 0,
                     tag << " first block at offset " << t.block_offset[0]);
      uint64_t expect_off = 0;
      for (size_t b = 0; b < blocks; ++b) {
        if (b > 0) {
          MET_CHECK_THAT(rep,
                         t.block_first_key[b - 1] < t.block_first_key[b],
                         tag << " fence keys out of order at block " << b);
        }
        MET_CHECK_THAT(rep, t.block_offset[b] == expect_off,
                       tag << " block " << b << " at offset "
                           << t.block_offset[b] << ", expected "
                           << expect_off);
        // Each on-disk block is payload plus a 4-byte CRC32C trailer.
        expect_off = t.block_offset[b] + t.block_length[b] + 4;
      }
      MET_CHECK_THAT(rep, expect_off == t.data_bytes,
                     tag << " blocks cover " << expect_off << " of "
                         << t.data_bytes << " data bytes");
      MET_CHECK_THAT(rep, t.data_bytes < t.file_bytes,
                     tag << " data region " << t.data_bytes
                         << " leaves no room for footer/trailer in "
                         << t.file_bytes << " file bytes");
      MET_CHECK_THAT(rep, t.block_first_key.front() == t.min_key,
                     tag << " min_key != first fence key");
      MET_CHECK_THAT(rep, !(t.max_key < t.block_first_key.back()),
                     tag << " last fence key above max_key");
      MET_CHECK_THAT(rep,
                     t.quarantined.empty() || *t.quarantined.rbegin() < blocks,
                     tag << " quarantines block " << *t.quarantined.rbegin()
                         << " of " << blocks);
    }

    // A table recovered over corrupt blocks legitimately runs unfiltered (a
    // rebuilt filter would miss the quarantined keys => false negatives), so
    // the filter-type check only binds when the filter exists.
    switch (options_.filter) {
      case LsmFilterType::kNone:
        MET_CHECK_THAT(rep, t.bloom == nullptr && t.surf == nullptr,
                       tag << " carries a filter with filtering disabled");
        break;
      case LsmFilterType::kBloom:
        MET_CHECK_THAT(rep, t.surf == nullptr,
                       tag << " carries a SuRF in Bloom mode");
        break;
      case LsmFilterType::kSurfHash:
      case LsmFilterType::kSurfReal:
        MET_CHECK_THAT(rep, t.bloom == nullptr,
                       tag << " carries a Bloom in SuRF mode");
        if (t.surf != nullptr) {
          MET_CHECK_THAT(rep, t.surf->Validate(rep.os()),
                         tag << " SuRF filter inconsistent");
        }
        break;
    }
  };

  for (size_t l = 0; l < levels_.size(); ++l) {
    const auto& level = levels_[l];
    for (size_t i = 0; i < level.size(); ++i) {
      check_table(*level[i], l, i);
      if (l >= 1 && i > 0) {
        MET_CHECK_THAT(rep, level[i - 1]->max_key < level[i]->min_key,
                       "L" << l << " tables " << i - 1 << " and " << i
                           << " overlap: "
                           << check::KeyToDebugString(level[i - 1]->max_key)
                           << " !< "
                           << check::KeyToDebugString(level[i]->min_key));
      }
    }
  }
  MET_CHECK_THAT(rep, compact_cursor_.size() <= levels_.size(),
                 compact_cursor_.size() << " compaction cursors for "
                                        << levels_.size()
                                        << " levels (cursors grow lazily)");
  size_t occupied = 0, linked = 0;
  for (size_t i = 0; i < cache_.size(); ++i) {
    const CacheSlot& slot = cache_[i];
    if (slot.table_id == kNoTable) continue;
    ++occupied;
    MET_CHECK_THAT(rep, CacheFind(slot.table_id, slot.block) == i,
                   "cache slot " << i << " (table " << slot.table_id
                                 << ", block " << slot.block
                                 << ") unreachable through the index");
    const RawBlock& b = slot.data;
    MET_CHECK_THAT(rep,
                   b.size <= b.capacity &&
                       (b.offsets.empty() || b.offsets.back() < b.size),
                   "cache slot " << i << " offsets past its payload");
  }
  for (uint32_t s : cache_index_) linked += s != kNoSlot;
  MET_CHECK_THAT(rep, linked == occupied,
                 "cache index links " << linked << " slots, " << occupied
                                      << " occupied");
  for (uint32_t s : cache_free_) {
    MET_CHECK_THAT(rep, s < cache_.size() && cache_[s].table_id == kNoTable,
                   "free-list slot " << s << " is occupied");
  }
  MET_CHECK_THAT(rep, NumTables() <= options_.max_open_files,
                 NumTables() << " open table files exceed the "
                             << options_.max_open_files << " budget");
  return rep.ok();
}

}  // namespace met
