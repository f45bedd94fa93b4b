//===- AllocHooks.cpp - counting global operator new ----------------------===//
//
// Part of cjpack. MIT license.
//
// Linked into the traced binary only, so the end-to-end binary never
// pays for the counting. Every replaceable allocation form counts one
// allocation of the requested size; the matching deletes free.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include <cstdlib>
#include <new>

namespace {

void *countedAlloc(size_t Size) noexcept {
  perfbench::noteAllocation(Size);
  return std::malloc(Size ? Size : 1);
}

void *countedAlignedAlloc(size_t Size, std::align_val_t Al) noexcept {
  perfbench::noteAllocation(Size);
  auto A = static_cast<size_t>(Al);
  size_t Rounded = (Size + A - 1) / A * A;
  return std::aligned_alloc(A, Rounded ? Rounded : A);
}

} // namespace

void *operator new(size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
void *operator new(size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new[](size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
void *operator new(size_t Size, std::align_val_t Al) {
  if (void *P = countedAlignedAlloc(Size, Al))
    return P;
  throw std::bad_alloc();
}
void *operator new[](size_t Size, std::align_val_t Al) {
  if (void *P = countedAlignedAlloc(Size, Al))
    return P;
  throw std::bad_alloc();
}
void *operator new(size_t Size, std::align_val_t Al,
                   const std::nothrow_t &) noexcept {
  return countedAlignedAlloc(Size, Al);
}
void *operator new[](size_t Size, std::align_val_t Al,
                     const std::nothrow_t &) noexcept {
  return countedAlignedAlloc(Size, Al);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::align_val_t,
                     const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::align_val_t,
                       const std::nothrow_t &) noexcept {
  std::free(P);
}
