// Replaces the global operator new with one that counts every call, for
// tests that assert a path makes no heap allocation. Include it from exactly
// one source file of a test binary: the replacement is program-wide.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace qcap::testutil {
/// Heap allocations made through operator new since the program started.
inline std::atomic<uint64_t> heap_allocations{0};
}  // namespace qcap::testutil

void* operator new(std::size_t size) {
  qcap::testutil::heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  qcap::testutil::heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
// GCC pairs the built-in operator new with the built-in operator delete at
// call sites and flags std::free as mismatched; with the malloc-backed
// replacement above, free() is exactly right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
