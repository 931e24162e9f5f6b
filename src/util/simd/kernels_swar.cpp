/// \file kernels_swar.cpp
/// Portable SWAR backend — uint64 word parallelism only, no ISA extensions.
/// Always compiled, always selectable; the fallback when the CPU offers no
/// wider backend. Like every backend it is property-tested against the
/// scalar oracle (kernels_oracle.cpp). The bundling kernel is the shared
/// Harley–Seal skeleton (sweep_impl.hpp) on eight words per block.

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/simd/backends.hpp"
#include "util/simd/sweep_impl.hpp"

namespace hdtest::util::simd {

namespace {

std::size_t xor_popcount_swar(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

using detail::ripple_from;

/// Eight words (one cache line of a 64-byte aligned row) per pass over the
/// pixel rows; the compiler is free to run the eight trees in whatever
/// vector registers the baseline ISA has.
void bundle_bound_swar(const std::uint64_t* positions, std::size_t stride,
                       const std::uint64_t* const* value_rows,
                       std::size_t count, std::size_t bits,
                       const std::uint64_t* tie_break,
                       std::uint64_t* out_packed,
                       std::int32_t* out_lanes) noexcept {
  detail::bundle_bound_generic<detail::Unrolled<detail::WordOps, 8>>(
      positions, stride, value_rows, count, bits, tie_break, out_packed,
      out_lanes);
}

void csa_patch_swar(std::uint64_t* slices, std::size_t words,
                    std::size_t levels, const std::uint64_t* pos,
                    const std::uint64_t* old_val,
                    const std::uint64_t* new_val) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t old_bound = pos[w] ^ old_val[w];
    const std::uint64_t new_inv = ~(pos[w] ^ new_val[w]);
    // Two weight-2 addends per lane; CSA-combine them first so the common
    // case ripples once, not twice. Bias headroom kills the carries.
    (void)ripple_from(slices, words, levels, w, old_bound ^ new_inv, 1);
    (void)ripple_from(slices, words, levels, w, old_bound & new_inv, 2);
  }
}

void slice_bipolarize_swar(const std::uint64_t* slices, std::size_t words,
                           std::size_t levels, std::uint32_t threshold,
                           const std::uint64_t* tie_break,
                           std::uint64_t* out) noexcept {
  for (std::size_t w = 0; w < words; ++w) {
    // Bit-parallel compare of 64 stored values against the threshold,
    // MSB down: less-than decides sign, exact equality is the Eq. 1 tie.
    std::uint64_t less = 0;
    std::uint64_t equal = ~0ULL;
    for (std::size_t j = levels; j-- > 0;) {
      const std::uint64_t s = slices[j * words + w];
      if ((threshold >> j) & 1u) {
        less |= equal & ~s;
        equal &= s;
      } else {
        equal &= ~s;
      }
    }
    out[w] = less | (equal & tie_break[w]);
  }
}

void am_sweep_swar(const std::uint64_t* am, std::size_t classes,
                   std::size_t stride, const std::uint64_t* const* queries,
                   std::size_t count, std::uint32_t* best_class,
                   std::uint64_t* best_ham, std::uint64_t* ref_ham,
                   std::uint32_t ref_class) noexcept {
  detail::am_sweep_generic(am, classes, stride, queries, count, best_class,
                           best_ham, ref_ham, ref_class, xor_popcount_swar);
}

constexpr Kernels kSwarKernels{
    "swar",
    xor_popcount_swar,
    bundle_bound_swar,
    csa_patch_swar,
    slice_bipolarize_swar,
    am_sweep_swar,
};

}  // namespace

const Kernels* swar_kernels() noexcept { return &kSwarKernels; }

}  // namespace hdtest::util::simd
