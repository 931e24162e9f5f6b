/// \file kernels_avx512.cpp
/// AVX-512 backend: 512-bit lanes (8 packed words per op) with native
/// per-qword popcounts (VPOPCNTDQ), vpternlog carry-save adders, and
/// mask-register lane adds for the bundle kernel's int32 output. Requires
/// AVX-512F + VPOPCNTDQ at runtime;
/// compiled with the matching -mavx512* flags when available (see
/// src/CMakeLists.txt) and degrades to a nullptr stub otherwise.

#include "util/simd/backends.hpp"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/simd/sweep_impl.hpp"

namespace hdtest::util::simd {

namespace {

inline __m512i loadu(const std::uint64_t* p) noexcept {
  return _mm512_loadu_si512(p);
}

inline void storeu(std::uint64_t* p, __m512i v) noexcept {
  _mm512_storeu_si512(p, v);
}

std::size_t xor_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_xor_si512(loadu(a + w), loadu(b + w))));
  }
  std::size_t total = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
  for (; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

using detail::ripple_from;

/// Bundle vector ops on 8 words (512 bits). vpternlog makes the sum
/// (0x96: a ^ b ^ c) and the majority (0xe8) one op each, so a CSA is 2.
struct Avx512Ops {
  using T = __m512i;
  static constexpr std::size_t kWords = 8;
  static T zero() noexcept { return _mm512_setzero_si512(); }
  static T ones() noexcept { return _mm512_set1_epi64(-1); }
  static T load(const std::uint64_t* p) noexcept { return loadu(p); }
  static void store(std::uint64_t* p, T v) noexcept { storeu(p, v); }
  static T bxor(T a, T b) noexcept { return _mm512_xor_si512(a, b); }
  static T band(T a, T b) noexcept { return _mm512_and_si512(a, b); }
  static T bor(T a, T b) noexcept { return _mm512_or_si512(a, b); }
  static T andnot(T a, T b) noexcept { return _mm512_andnot_si512(a, b); }
  static T xor3(T a, T b, T c) noexcept {
    return _mm512_ternarylogic_epi64(a, b, c, 0x96);
  }
  static T maj(T a, T b, T c) noexcept {
    return _mm512_ternarylogic_epi64(a, b, c, 0xe8);
  }

  /// Lane drain with masked adds: each 16-lane group gets +count, then
  /// -2^(j+1) under its 16 mask bits of count slice j.
  static void add_counts(const std::uint64_t* slab, std::size_t slab_stride,
                         std::size_t levels, std::size_t count,
                         std::int32_t* lanes, std::size_t lanes_used) noexcept {
    const __m512i bundle =
        _mm512_set1_epi32(static_cast<std::int32_t>(count));
    for (std::size_t g = 0; g * 16 < lanes_used; ++g) {
      const std::size_t left = lanes_used - g * 16;
      const auto valid =
          static_cast<__mmask16>(left >= 16 ? 0xffffu : (1u << left) - 1u);
      std::int32_t* group = lanes + g * 16;
      __m512i acc = _mm512_maskz_loadu_epi32(valid, group);
      acc = _mm512_add_epi32(acc, bundle);
      const std::uint64_t* word = slab + g / 4;
      const std::size_t shift = (g % 4) * 16;
      for (std::size_t j = 0; j < levels; ++j) {
        const auto set =
            static_cast<__mmask16>(word[j * slab_stride] >> shift);
        acc = _mm512_mask_sub_epi32(
            acc, set, acc,
            _mm512_set1_epi32(static_cast<std::int32_t>(2u << j)));
      }
      _mm512_mask_storeu_epi32(group, valid, acc);
    }
  }
};

/// Two zmm trees (16 words, two adjacent cache lines of a row) per pass over
/// the pixel rows, one zmm for an 8-word remainder, SWAR for the rest.
void bundle_bound_avx512(const std::uint64_t* positions, std::size_t stride,
                         const std::uint64_t* const* value_rows,
                         std::size_t count, std::size_t bits,
                         const std::uint64_t* tie_break,
                         std::uint64_t* out_packed,
                         std::int32_t* out_lanes) noexcept {
  detail::bundle_bound_generic<detail::Unrolled<Avx512Ops, 2>, Avx512Ops>(
      positions, stride, value_rows, count, bits, tie_break, out_packed,
      out_lanes);
}

void csa_patch_avx512(std::uint64_t* slices, std::size_t words,
                      std::size_t levels, const std::uint64_t* pos,
                      const std::uint64_t* old_val,
                      const std::uint64_t* new_val) noexcept {
  const __m512i ones = _mm512_set1_epi64(-1);
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m512i p = loadu(pos + w);
    const __m512i old_bound = _mm512_xor_si512(p, loadu(old_val + w));
    const __m512i new_inv =
        _mm512_xor_si512(_mm512_xor_si512(p, loadu(new_val + w)), ones);
    __m512i m[2] = {_mm512_xor_si512(old_bound, new_inv),
                    _mm512_and_si512(old_bound, new_inv)};
    for (int add = 0; add < 2; ++add) {
      __m512i carry = m[add];
      for (std::size_t j = 1 + static_cast<std::size_t>(add); j < levels; ++j) {
        if (_mm512_test_epi64_mask(carry, carry) == 0) break;
        std::uint64_t* s = slices + j * words + w;
        const __m512i sv = loadu(s);
        const __m512i next = _mm512_and_si512(sv, carry);
        storeu(s, _mm512_xor_si512(sv, carry));
        carry = next;
      }
    }
  }
  for (; w < words; ++w) {
    const std::uint64_t old_bound = pos[w] ^ old_val[w];
    const std::uint64_t new_inv = ~(pos[w] ^ new_val[w]);
    (void)ripple_from(slices, words, levels, w, old_bound ^ new_inv, 1);
    (void)ripple_from(slices, words, levels, w, old_bound & new_inv, 2);
  }
}

void slice_bipolarize_avx512(const std::uint64_t* slices, std::size_t words,
                             std::size_t levels, std::uint32_t threshold,
                             const std::uint64_t* tie_break,
                             std::uint64_t* out) noexcept {
  const __m512i ones = _mm512_set1_epi64(-1);
  std::size_t w = 0;
  for (; w + 8 <= words; w += 8) {
    __m512i less = _mm512_setzero_si512();
    __m512i equal = ones;
    for (std::size_t j = levels; j-- > 0;) {
      const __m512i s = loadu(slices + j * words + w);
      if ((threshold >> j) & 1u) {
        less = _mm512_or_si512(less, _mm512_andnot_si512(s, equal));
        equal = _mm512_and_si512(equal, s);
      } else {
        equal = _mm512_andnot_si512(s, equal);
      }
    }
    storeu(out + w,
           _mm512_or_si512(less, _mm512_and_si512(equal, loadu(tie_break + w))));
  }
  for (; w < words; ++w) {
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

void am_sweep_avx512(const std::uint64_t* am, std::size_t classes,
                     std::size_t stride, const std::uint64_t* const* queries,
                     std::size_t count, std::uint32_t* best_class,
                     std::uint64_t* best_ham, std::uint64_t* ref_ham,
                     std::uint32_t ref_class) noexcept {
  detail::am_sweep_generic(am, classes, stride, queries, count, best_class,
                           best_ham, ref_ham, ref_class, xor_popcount_avx512);
}

constexpr Kernels kAvx512Kernels{
    "avx512",
    xor_popcount_avx512,
    bundle_bound_avx512,
    csa_patch_avx512,
    slice_bipolarize_avx512,
    am_sweep_avx512,
};

}  // namespace

const Kernels* avx512_kernels() noexcept { return &kAvx512Kernels; }

}  // namespace hdtest::util::simd

#else  // no AVX-512F + VPOPCNTDQ codegen

namespace hdtest::util::simd {
const Kernels* avx512_kernels() noexcept { return nullptr; }
}  // namespace hdtest::util::simd

#endif
