// Global operator new/delete replacement feeding the met::prof process-heap
// counters (heap_stats.h). Compiled to an empty TU unless
// MET_PROF_HEAP_HOOK is defined — only the `met_heap_hook` OBJECT library
// sets it, so binaries opt in by linking that target and everything else
// keeps the default allocator path untouched.
//
// Accounting uses malloc_usable_size so allocate and free charge the same
// (actual) block size without a size header; ASan/TSan intercept both
// malloc and malloc_usable_size, so the hook stays sanitizer-clean.
#ifdef MET_PROF_HEAP_HOOK

#include <cstdlib>
#include <new>

#if defined(__linux__)
#include <malloc.h>
#define MET_PROF_USABLE_SIZE(p) malloc_usable_size(p)
#else
#define MET_PROF_USABLE_SIZE(p) 0
#endif

#include "prof/heap_stats.h"

namespace {

struct HookMarker {
  HookMarker() {
    met::prof::internal::g_heap_hook_active.store(true,
                                                 std::memory_order_relaxed);
  }
};
HookMarker g_hook_marker;

void* AllocOrThrow(size_t size, size_t align) {
  if (size == 0) size = 1;
  for (;;) {
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(align, (size + align - 1) / align * align);
    if (p != nullptr) {
      size_t usable = MET_PROF_USABLE_SIZE(p);
      met::prof::internal::g_heap_stats.OnAlloc(usable != 0 ? usable : size);
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* AllocNoThrow(size_t size, size_t align) noexcept {
  try {
    return AllocOrThrow(size, align);
  } catch (...) {
    return nullptr;
  }
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  size_t usable = MET_PROF_USABLE_SIZE(p);
  met::prof::internal::g_heap_stats.OnFree(usable);
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return AllocOrThrow(size, 0); }
void* operator new[](size_t size) { return AllocOrThrow(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return AllocOrThrow(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return AllocOrThrow(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return AllocNoThrow(size, 0);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return AllocNoThrow(size, 0);
}
void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return AllocNoThrow(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return AllocNoThrow(size, static_cast<size_t>(align));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { Release(p); }

#endif  // MET_PROF_HEAP_HOOK
