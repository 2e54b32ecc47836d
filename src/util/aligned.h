// Over-aligned, default-initialising heap allocation for column storage.
//
// The metrics/simd kernels load fleet columns with 32-byte vector loads;
// std::allocator only guarantees alignof(std::max_align_t) (16 on x86-64),
// so the columns cluster::Fleet hands to the kernels use this allocator
// instead. Alignment is a template parameter so a future AVX-512 column can
// ask for 64 without a new type.
//
// The allocator also default-initialises: resize() leaves new trivial
// elements unwritten instead of zero-filling them. A column sized once for
// a whole chunk is then written, and its pages first touched, only by the
// lane that fills each row (cluster::Fleet::Builder), never by a serial
// zero-fill beforehand. Every user must write each element it sizes before
// reading it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace epserve::util {

template <typename T, std::size_t Alignment = 32>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T), "alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0, "alignment not a power of 2");

  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  /// Default-initialisation: a no-op for trivial element types.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) noexcept(
      std::is_nothrow_constructible_v<U, Args...>) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// std::vector whose data() is 32-byte aligned (the kernels' load width) and
/// whose resize() leaves new elements unwritten.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace epserve::util
