#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::allocs {
namespace {

std::atomic<int> g_window{kSetup};
std::atomic<std::uint64_t> g_exited[kWindows];

// Trivially destructible, so allocations made while other thread-locals are
// torn down still land somewhere valid (they are simply not folded in).
thread_local std::uint64_t t_counts[kWindows];

struct FoldOnExit {
  ~FoldOnExit() {
    for (int w = 0; w < kWindows; ++w) {
      g_exited[w].fetch_add(t_counts[w], std::memory_order_relaxed);
      t_counts[w] = 0;
    }
  }
};
thread_local FoldOnExit t_fold;

inline void count() {
  (void)&t_fold;  // odr-use: registers the per-thread fold on first allocation
  ++t_counts[g_window.load(std::memory_order_relaxed)];
}

}  // namespace

void setWindow(Window w) { g_window.store(w, std::memory_order_relaxed); }

void reset() {
  for (int w = 0; w < kWindows; ++w) {
    g_exited[w].store(0, std::memory_order_relaxed);
    t_counts[w] = 0;
  }
  setWindow(kSetup);
}

Counts read() {
  Counts c{};
  for (int w = 0; w < kWindows; ++w) {
    c[w] = g_exited[w].load(std::memory_order_relaxed) + t_counts[w];
  }
  return c;
}

}  // namespace perfbench::allocs

// Replacing these signatures covers every new/delete in the binary, the
// standard library's included. GCC inlines the malloc-backed replacements and
// then flags the (correct) malloc/free pairing as a new/delete mismatch.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  perfbench::allocs::count();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  perfbench::allocs::count();
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
