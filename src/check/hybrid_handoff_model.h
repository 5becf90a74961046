// The hybrid index's owner<->drain handoff as a met::race workload, shared
// by tools/model_check.cc (--workload=hybrid) and tests/race_test.cc.
//
// Virtual thread 0 is the owner: its second insert crosses the merge
// trigger, so the index freezes and hands the background drain's body to a
// check::TestAccess spawner instead of a std::thread; the owner then keeps
// reading (each read may adopt), writes once more and waits for the merge.
// Virtual thread 1 waits for that body and runs it. Keys committed before
// the run must never vanish across the adopt. StepCheck() runs the full
// merge-state validator after every scheduled action; with `inject` the
// drain flags itself done before storing its result, which the validator's
// handoff invariant catches.
//
// Needs MET_CHECK_ENABLED in the including TU (the validator).
#ifndef MET_CHECK_HYBRID_HANDOFF_MODEL_H_
#define MET_CHECK_HYBRID_HANDOFF_MODEL_H_

#include <cinttypes>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/hybrid_check.h"
#include "check/test_access.h"
#include "common/sync.h"
#include "hybrid/hybrid.h"
#include "race/sched.h"

namespace met::check {

class HybridHandoffModel {
 public:
  using Index = HybridBTree<uint64_t>;

  explicit HybridHandoffModel(bool inject) : inject_(inject) {}
  ~HybridHandoffModel() { Reset(); }

  HybridHandoffModel(const HybridHandoffModel&) = delete;
  HybridHandoffModel& operator=(const HybridHandoffModel&) = delete;

  std::vector<race::Scheduler::ThreadFn> MakeThreads() {
    Reset();
    HybridConfig cfg;
    cfg.background_merge = true;
    cfg.constant_trigger = true;
    cfg.constant_threshold = 2;  // the owner's 2nd insert freezes
    cfg.min_merge_entries = 1;
    slot_ = std::make_unique<Slot>();
    index_ = std::make_unique<Index>(cfg);
    // Committed state, built outside the scheduler with an inline merge.
    for (uint64_t k = 1; k <= 3; ++k) index_->Insert(k * 10, k);
    index_->Merge();

    Index* idx = index_.get();
    Slot* slot = slot_.get();
    bool inject = inject_;
    TestAccess::SetDrainSpawner(
        idx, [idx, slot, inject](std::function<void()> body) {
          sync::MutexLock l(slot->mu);
          slot->body =
              inject ? TestAccess::DrainDoneBeforeResult(idx) : std::move(body);
          slot->posted.store(true);
          slot->cv.NotifyAll();
        });
    return {
        [idx] {
          idx->Insert(100, 100);
          idx->Insert(101, 101);  // freeze: the drain goes to thread 1
          for (int round = 0; round < 2; ++round) {
            for (uint64_t k = 1; k <= 3; ++k) {
              uint64_t v = 0;
              if (!idx->Lookup(k * 10, &v) || v != k)
                race::Fail("hybrid: committed key %" PRIu64
                           " lost across the adopt (round %d)",
                           k * 10, round);
            }
            if (!idx->Lookup(100) || !idx->Lookup(101))
              race::Fail("hybrid: frozen key lost (round %d)", round);
          }
          idx->Insert(102, 102);
          idx->WaitForMergeIdle();
        },
        [slot] {
          std::function<void()> body;
          {
            sync::MutexLock l(slot->mu);
            slot->cv.Wait(slot->mu, [slot] { return slot->posted.load(); });
            body = std::move(slot->body);
          }
          body();
        },
    };
  }

  /// After every scheduled action, with both threads parked.
  void StepCheck() {
    if (index_ == nullptr) return;
    std::ostringstream os;
    if (!index_->Validate(os))
      throw race::FailureError{"hybrid: validator failed mid-run:\n" +
                               os.str()};
  }

  /// After both threads finished.
  void FinalCheck() {
    StepCheck();
    if (index_->MergeInFlight())
      throw race::FailureError{"hybrid: merge still in flight at exit"};
    uint64_t v = 0;
    for (uint64_t k = 1; k <= 3; ++k)
      if (!index_->Lookup(k * 10, &v) || v != k)
        throw race::FailureError{"hybrid: committed key lost at exit"};
    for (uint64_t k = 100; k <= 102; ++k)
      if (!index_->Lookup(k, &v) || v != k)
        throw race::FailureError{"hybrid: owner's key lost at exit"};
  }

 private:
  /// Drops the previous execution's index; an aborted run may have left its
  /// merge in flight with no drain to finish it.
  void Reset() {
    if (index_ != nullptr) TestAccess::AbandonMerge(index_.get());
    index_.reset();
    slot_.reset();
  }

  /// Where the owner's freeze posts the drain body for thread 1.
  struct Slot {
    sync::Mutex mu;
    sync::CondVar cv;
    std::function<void()> body;
    sync::Atomic<bool> posted{false};
  };

  bool inject_;
  std::unique_ptr<Slot> slot_;
  std::unique_ptr<Index> index_;
};

}  // namespace met::check

#endif  // MET_CHECK_HYBRID_HANDOFF_MODEL_H_
