// Counting allocator: replaces global operator new/delete with malloc/free
// wrappers that count calls and track live and peak heap bytes (usable
// sizes). The readings feed peak_heap_mb, cluster.ingest_peak_mb and — once
// registered as the MetricsTimeline alloc source — the per-superstep alloc
// column. The benchmark keeps its own copy rather than sharing the
// experiment harness's header so that it depends on the library alone.

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

void note_alloc(void* p) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

std::uint64_t alloc_count() noexcept { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t peak_heap_bytes() noexcept { return g_peak.load(std::memory_order_relaxed); }
void reset_peak_heap() noexcept {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace perfbench

// GCC cannot see that the replacement new is malloc-backed, so free() in the
// replacement delete is a matched pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size != 0 ? size : 1)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  const auto al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  if (void* p = std::aligned_alloc(al, rounded != 0 ? rounded : al)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }

#pragma GCC diagnostic pop
