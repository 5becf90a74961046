// Scenario (Chapter 4's motivation): a time-series store on an LSM engine
// answers "did any sensor fire between t1 and t2?" — with SuRF filters the
// engine skips the SSTables whose filters prove the range empty, saving
// most disk reads.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "io/status.h"
#include "keys/keygen.h"
#include "lsm/lsm.h"

using namespace met;

namespace {

void CheckOk(const io::Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main() {
  for (LsmFilterType filter : {LsmFilterType::kNone, LsmFilterType::kSurfReal}) {
    LsmOptions opt;
    opt.dir = "/tmp/met_example_lsm";
    opt.filter = filter;
    opt.memtable_bytes = 1 << 20;
    opt.block_cache_blocks = 128;
    LsmTree db(opt);

    // 50 sensors, Poisson events, ~0.2 s apart each.
    Random rng(1);
    uint64_t ts = 0;
    for (int e = 0; e < 200000; ++e) {
      ts += static_cast<uint64_t>(-std::log(1 - rng.NextDouble()) * 4e6);
      uint64_t sensor = rng.Uniform(50);
      CheckOk(db.Put(Uint64ToKey(ts) + Uint64ToKey(sensor), "reading=42"),
              "Put");
    }
    CheckOk(db.Finish(), "Finish");

    db.ResetStats();
    size_t hits = 0, queries = 20000;
    for (size_t i = 0; i < queries; ++i) {
      uint64_t a = rng.Uniform(ts);
      hits += db.ClosedSeek(Uint64ToKey(a), Uint64ToKey(a + 1000000)).has_value();
    }
    std::printf("%-10s: %5zu/%zu ranges non-empty, %6llu block reads (%.3f I/O per query)\n",
                LsmFilterTypeName(filter), hits, queries,
                (unsigned long long)db.stats().block_reads,
                double(db.stats().block_reads) / queries);
  }
  std::printf("SuRF answers most empty ranges from memory - that is the Figure 4.9 effect.\n");
  return 0;
}
