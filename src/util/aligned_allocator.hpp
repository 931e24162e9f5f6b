#pragma once
/// \file aligned_allocator.hpp
/// A std::allocator replacement whose blocks start on a kAlign-byte
/// boundary, for word arrays the vector kernels stream: a 64-byte aligned
/// codebook row of 8k words is whole cache lines, so each 512-bit load
/// touches one line instead of two (a model file maps its sections on
/// 64-byte boundaries for the same reason).

#include <cstddef>
#include <new>

namespace hdtest::util {

template <typename T, std::size_t kAlign>
struct AlignedAllocator {
  using value_type = T;

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(
      const AlignedAllocator<U, kAlign>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }

  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  friend bool operator==(const AlignedAllocator& /*a*/,
                         const AlignedAllocator& /*b*/) noexcept {
    return true;
  }
};

}  // namespace hdtest::util
