/// \file kernels_oracle.cpp
/// The scalar reference backend: straight-line loops over words and lanes,
/// sharing no code with the other backends (not even sweep_impl.hpp). This
/// is the executable specification of every kernel contract in kernels.hpp
/// — the property tests diff every other available backend against it
/// bit-for-bit. It is listed in available_kernels() but never auto-selected;
/// HDTEST_KERNEL_BACKEND=oracle forces it for a whole run.
///
/// Style note: this file sits in the checked-arith lint scope, so all row
/// and level addressing uses stepped pointer cursors instead of index
/// products — which is also the clearest way to write a reference walk.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "util/simd/backends.hpp"

namespace hdtest::util::simd {

namespace {

/// Weight-1 ripple-carry add of \p bits into a level-major slice bank,
/// starting at \p slice and stepping \p jump words per level; a carry
/// escaping the topmost of the \p levels levels is dropped.
void ripple_word(std::uint64_t* slice, std::size_t levels, std::size_t jump,
                 std::uint64_t bits) noexcept {
  std::uint64_t carry = bits;
  for (std::size_t j = 0; j < levels && carry != 0; ++j) {
    const std::uint64_t prior = *slice;
    *slice = prior ^ carry;
    carry = prior & carry;
    slice += jump;
  }
}

std::size_t xor_popcount_oracle(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) noexcept {
  std::size_t h = 0;
  for (std::size_t w = 0; w < words; ++w) {
    h += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return h;
}

void bundle_bound_oracle(const std::uint64_t* positions, std::size_t stride,
                         const std::uint64_t* const* values,
                         std::size_t count, std::size_t bits,
                         const std::uint64_t* tie_break,
                         std::uint64_t* out_packed,
                         std::int32_t* out_lanes) noexcept {
  // Straight per-lane count: each lane's bundle sum is +1 per pixel whose
  // bound bit (position bit ^ value bit) is clear and -1 per set one; Eq. 1
  // then takes the sign, with the tie-break bit deciding a zero sum.
  // values[p] is pixel p's value row (value_rows in kernels.hpp).
  std::size_t lane = 0;
  for (std::size_t w = 0; lane < bits; ++w) {
    std::int32_t sums[64] = {};
    const std::uint64_t* position = positions;
    for (std::size_t p = 0; p < count; ++p) {
      const std::uint64_t bound = position[w] ^ values[p][w];
      for (std::size_t b = 0; b < 64; ++b) {
        sums[b] += 1 - 2 * static_cast<std::int32_t>((bound >> b) & 1u);
      }
      position += stride;
    }
    std::uint64_t packed = 0;
    for (std::size_t b = 0; b < 64 && lane < bits; ++b, ++lane) {
      std::uint64_t bit = 0;
      if (sums[b] < 0) {
        bit = 1;
      } else if (sums[b] == 0) {
        bit = (tie_break[w] >> b) & 1u;
      }
      packed |= bit << b;
      if (out_lanes != nullptr) {
        out_lanes[lane] += sums[b];
      }
    }
    out_packed[w] = packed;
  }
}

void csa_patch_oracle(std::uint64_t* slices, std::size_t words,
                      std::size_t levels, const std::uint64_t* pos,
                      const std::uint64_t* old_val,
                      const std::uint64_t* new_val) noexcept {
  // 2*(pos^old)_bit + 2*(~(pos^new))_bit per lane, CSA-combined into one
  // weight-2 addend (u ^ v at level 1) plus one weight-4 addend (u & v at
  // level 2). The caller's bias headroom guarantees neither ripple can
  // escape the bank, so any escaping carry is discarded by contract.
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t u = pos[w] ^ old_val[w];
    const std::uint64_t v = ~(pos[w] ^ new_val[w]);
    std::uint64_t* lvl1 = slices + w + words;
    if (levels > 1) ripple_word(lvl1, levels - 1, words, u ^ v);
    if (levels > 2) ripple_word(lvl1 + words, levels - 2, words, u & v);
  }
}

void slice_bipolarize_oracle(const std::uint64_t* slices, std::size_t words,
                             std::size_t levels, std::uint32_t threshold,
                             const std::uint64_t* tie_break,
                             std::uint64_t* out) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t ties = tie_break[w];
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64; ++b) {
      const std::uint64_t* slice = slices + w;
      std::uint32_t stored = 0;
      for (std::size_t j = 0; j < levels; ++j) {
        stored |= static_cast<std::uint32_t>((*slice >> b) & 1u) << j;
        slice += words;
      }
      std::uint64_t bit = 0;
      if (stored < threshold) {
        bit = 1;
      } else if (stored == threshold) {
        bit = (ties >> b) & 1u;
      }
      bits |= bit << b;
    }
    out[w] = bits;
  }
}

void am_sweep_oracle(const std::uint64_t* am, std::size_t classes,
                     std::size_t stride, const std::uint64_t* const* queries,
                     std::size_t count, std::uint32_t* best_class,
                     std::uint64_t* best_ham, std::uint64_t* ref_ham,
                     std::uint32_t ref_class) noexcept {
  for (std::size_t q = 0; q < count; ++q) {
    best_ham[q] = std::numeric_limits<std::uint64_t>::max();
    best_class[q] = 0;
  }
  const std::uint64_t* proto = am;
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::size_t q = 0; q < count; ++q) {
      const std::uint64_t* query = queries[q];
      std::uint64_t h = 0;
      for (std::size_t w = 0; w < stride; ++w) {
        h += static_cast<std::uint64_t>(std::popcount(proto[w] ^ query[w]));
      }
      // Strict < with classes ascending: lowest class index wins ties.
      if (h < best_ham[q]) {
        best_ham[q] = h;
        best_class[q] = static_cast<std::uint32_t>(c);
      }
      if (ref_ham != nullptr && c == ref_class) ref_ham[q] = h;
    }
    proto += stride;
  }
}

constexpr Kernels kOracleKernels{
    "oracle",
    xor_popcount_oracle,
    bundle_bound_oracle,
    csa_patch_oracle,
    slice_bipolarize_oracle,
    am_sweep_oracle,
};

}  // namespace

const Kernels* oracle_kernels() noexcept { return &kOracleKernels; }

}  // namespace hdtest::util::simd
