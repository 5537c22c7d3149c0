// Allocation counting for the traced run: replacements for the global
// operator new/delete. Kept in a file of their own, which allocates
// nothing, so the compiler never inlines a replacement next to a use.
#include <cstdlib>
#include <new>

#include "trace.h"

namespace tcpdyn::bench {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
// Trivially destructible, so operator new may touch it at any point of a
// thread's life.
thread_local std::uint64_t t_allocs = 0;

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on); }

std::uint64_t thread_allocs() { return t_allocs; }

std::uint64_t process_allocs() {
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace tcpdyn::bench

// Counting replacements for the global allocation functions. The array,
// nothrow and sized forms of the standard library forward to these two.
void* operator new(std::size_t size) {
  using namespace tcpdyn::bench;
  if (g_counting.load(std::memory_order_relaxed)) {
    ++t_allocs;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
