// Replaces the global allocation functions of the benchmark binary so runs
// can report exact allocation counts (per Locate, per request). Counting
// costs one thread-local increment per allocation; the all-thread counter
// is a shared atomic and is only touched while switched on.

#include <atomic>
#include <cstdlib>
#include <new>

#include "hqbench/harness.h"

namespace hedgeq::perfbench {
namespace {

thread_local uint64_t t_allocs = 0;
std::atomic<bool> g_count_all{false};
std::atomic<uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  ++t_allocs;
  if (g_count_all.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

uint64_t ThreadAllocs() { return t_allocs; }

void CountAllThreads(bool on) {
  g_count_all.store(on, std::memory_order_relaxed);
}

uint64_t AllThreadAllocs() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace hedgeq::perfbench

void* operator new(std::size_t size) {
  void* p = hedgeq::perfbench::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = hedgeq::perfbench::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return hedgeq::perfbench::CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return hedgeq::perfbench::CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
