// Software prefetch hint for the FST batch kernel (Fst::LookupPathBatch).
//
// The batch pipeline hides dependent cache misses by running N probes as
// interleaved state machines and issuing a prefetch for the lines the *next*
// stage of each probe will touch. A hint never changes a result.
#ifndef MET_COMMON_PREFETCH_H_
#define MET_COMMON_PREFETCH_H_

namespace met {

/// Hints the line holding `addr` into cache for a read (keep in all levels:
/// a batch probe consumes the line within a few dozen instructions).
inline void PrefetchRead(const void* addr) {
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
}

}  // namespace met

#endif  // MET_COMMON_PREFETCH_H_
