#pragma once
/// \file bitops.hpp
/// Packed-word helpers backing the bit-packed hypervector implementation.
///
/// A bipolar hypervector with D elements in {-1,+1} is stored as ceil(D/64)
/// uint64 words of sign bits (bit = 1 encodes element -1). Binding (element-
/// wise multiply) becomes XOR and dot products reduce to popcounts, which is
/// the classic dense-binary-HDC hardware trick (Schmuck et al., JETC'19)
/// ablated in bench/hv_ops_gbench.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "util/simd/kernels.hpp"

namespace hdtest::util {

/// Number of 64-bit words needed to hold \p bits bits.
[[nodiscard]] constexpr std::size_t words_for_bits(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// Mask selecting the valid bits of the last word for a \p bits-bit vector
/// (all-ones when bits is a multiple of 64).
[[nodiscard]] constexpr std::uint64_t tail_mask(std::size_t bits) noexcept {
  const std::size_t rem = bits % 64;
  return rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
}

/// Total popcount over a span of words.
[[nodiscard]] inline std::size_t popcount(std::span<const std::uint64_t> words) noexcept {
  std::size_t total = 0;
  for (const auto word : words) {
    total += static_cast<std::size_t>(std::popcount(word));
  }
  return total;
}

/// Popcount of the XOR of two equal-length spans (Hamming distance of the
/// packed vectors), on the active kernel backend.
/// \pre a.size() == b.size().
[[nodiscard]] inline std::size_t xor_popcount(std::span<const std::uint64_t> a,
                                              std::span<const std::uint64_t> b) noexcept {
  return simd::kernels().xor_popcount(a.data(), b.data(), a.size());
}

/// Reads bit \p index from a packed span.
[[nodiscard]] inline bool get_bit(std::span<const std::uint64_t> words,
                                  std::size_t index) noexcept {
  return (words[index / 64] >> (index % 64)) & 1ULL;
}

/// Writes bit \p index in a packed span.
inline void set_bit(std::span<std::uint64_t> words, std::size_t index,
                    bool value) noexcept {
  const std::uint64_t mask = 1ULL << (index % 64);
  if (value) {
    words[index / 64] |= mask;
  } else {
    words[index / 64] &= ~mask;
  }
}

}  // namespace hdtest::util
