// Allocation probe shared by the steady-state allocation tests.
//
// Replaceable global operator new/delete, counting allocations and frees
// only on the thread that opted in. gtest and the test fixtures allocate
// freely; a test arms the counters just around the loop it checks.
// Replaceable allocation functions need external linkage, so include
// this header from exactly one translation unit per test binary, at
// global scope.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <new>

namespace alloc_probe {
thread_local bool counting = false;
thread_local std::uint64_t count = 0;
thread_local std::uint64_t frees = 0;  // non-null blocks released
}  // namespace alloc_probe

// GCC pairs the malloc in our operator new with the free in operator
// delete at inlined call sites and flags it; the pairing is exactly what
// replaceable allocators are allowed to do.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (alloc_probe::counting) ++alloc_probe::count;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (alloc_probe::counting && p != nullptr) ++alloc_probe::frees;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

#pragma GCC diagnostic pop
