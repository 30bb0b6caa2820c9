#ifndef SPONGEFILES_TESTS_ALLOC_COUNTER_H_
#define SPONGEFILES_TESTS_ALLOC_COUNTER_H_

// Counts this executable's heap allocations while `alloc_counter::counting`
// is set, so a test can assert that a code path allocates nothing, or how
// much it allocates. Every replaceable non-aligned form of operator new and
// delete is replaced, so each block is freed by the allocator that made
// it. These are definitions: include this header from one source file per
// test executable.

#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_counter {

inline bool counting = false;
inline size_t allocations = 0;
inline size_t bytes = 0;

// Counts from construction to destruction, starting from zero.
class Scope {
 public:
  Scope() {
    allocations = 0;
    bytes = 0;
    counting = true;
  }
  ~Scope() { counting = false; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

inline void* CountedAlloc(std::size_t n) {
  if (counting) {
    ++allocations;
    bytes += n;
  }
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line, so the compiler does not pair an inlined free() with a
// `new` expression and warn about the mismatch.
[[gnu::noinline]] inline void Free(void* p) { std::free(p); }

}  // namespace alloc_counter

void* operator new(std::size_t n) {
  if (void* p = alloc_counter::CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_counter::CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_counter::CountedAlloc(n);
}
void operator delete(void* p) noexcept { alloc_counter::Free(p); }
void operator delete[](void* p) noexcept { alloc_counter::Free(p); }
void operator delete(void* p, std::size_t) noexcept { alloc_counter::Free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  alloc_counter::Free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  alloc_counter::Free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  alloc_counter::Free(p);
}

#endif  // SPONGEFILES_TESTS_ALLOC_COUNTER_H_
