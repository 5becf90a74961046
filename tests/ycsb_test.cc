// Tests for the YCSB workload generator (a regression test for the 32-bit
// key_index that wrapped past 4 billion inserts) and the stall-split
// recorder the merge-pause bench reports through.
#include <cstdint>

#include "obs/stall.h"
#include "ycsb/workload.h"
#include "gtest/gtest.h"

namespace met {
namespace {

TEST(YcsbWorkloadTest, InsertIndicesSurviveFourBillion) {
  // Start the dataset just below 2^32: the first few inserts cross the
  // 32-bit boundary, where the old uint32_t key_index wrapped to ~0 and
  // collided the driver's thread-disjoint insert ranges.
  const uint64_t num_keys = (uint64_t{1} << 32) - 4;
  YcsbSpec spec;
  spec.read_fraction = 0.0;
  spec.update_fraction = 0.0;
  spec.scan_fraction = 0.0;  // insert = remainder = 1.0
  spec.zipfian = false;      // the Zipf zeta series is O(num_keys)
  YcsbRequestStream stream(num_keys, spec);
  for (uint64_t i = 0; i < 16; ++i) {
    YcsbRequest r = stream.Next();
    ASSERT_EQ(YcsbOp::kInsert, r.op);
    EXPECT_EQ(num_keys + i, r.key_index) << "wrapped at insert " << i;
    EXPECT_GE(r.key_index, num_keys);
  }
  EXPECT_EQ(num_keys + 16, stream.next_insert_index());
}

TEST(StallSplitTest, SplitsByPhaseAndOpClass) {
  obs::StallSplit stalls;
  stalls.Record(true, false, 100);
  stalls.Record(true, false, 200);
  stalls.Record(true, true, 5000);
  stalls.Record(false, true, 700);
  EXPECT_EQ(stalls.Reads(false).Count(), 2u);
  EXPECT_EQ(stalls.Reads(true).Count(), 1u);
  EXPECT_EQ(stalls.Writes(true).Count(), 1u);
  EXPECT_EQ(stalls.Writes(false).Count(), 0u);
  EXPECT_GE(stalls.Reads(true).Max(), stalls.Reads(false).Max());
  stalls.Reset();
  EXPECT_EQ(stalls.Reads(false).Count(), 0u);
}

}  // namespace
}  // namespace met
