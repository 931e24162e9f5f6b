#pragma once
/// \file sweep_impl.hpp
/// Inline helpers shared by the backend TUs: the query-blocked
/// associative-memory sweep skeleton (parameterized on the backend's
/// xor_popcount so the inner distance loop inlines with that backend's
/// vector width), the fused bundling kernel skeleton (parameterized on the
/// backend's vector type), and the scalar ripple-carry tail. Included by
/// the backend TUs only; everything stays internal to each TU (no cross-TU
/// COMDAT sharing, which matters because the AVX TUs are compiled with ISA
/// flags the portable code must not inherit).

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/contracts.hpp"

namespace hdtest::util::simd::detail {

/// Scalar ripple-carry of \p carry through slice levels [from, levels) at
/// word column \p w of a level-major bank; returns the carry that escaped
/// the top level (zero in the common case). The per-word tail every backend
/// falls back to.
inline std::uint64_t ripple_from(std::uint64_t* slices, std::size_t words,
                                 std::size_t levels, std::size_t w,
                                 std::uint64_t carry,
                                 std::size_t from) noexcept {
  for (std::size_t k = from; k < levels && carry != 0; ++k) {
    std::uint64_t& word = slices[k * words + w];
    const std::uint64_t next = word & carry;
    word ^= carry;
    carry = next;
  }
  return carry;
}

/// Classes-outer / queries-inner sweep: each class prototype row is read
/// once per block while the B queries stay cache-resident. Ties keep the
/// lowest class index (strict <), matching the scalar predict exactly.
template <typename XorPop>
HDTEST_HOT_PATH inline void am_sweep_generic(
    const std::uint64_t* am, std::size_t classes, std::size_t stride,
    const std::uint64_t* const* queries, std::size_t count,
    std::uint32_t* best_class, std::uint64_t* best_ham, std::uint64_t* ref_ham,
    std::uint32_t ref_class, XorPop&& xor_pop) noexcept {
  if (count == 0 || classes == 0) return;
  for (std::size_t q = 0; q < count; ++q) {
    best_ham[q] = xor_pop(am, queries[q], stride);
    best_class[q] = 0;
  }
  if (ref_ham != nullptr && ref_class == 0) {
    for (std::size_t q = 0; q < count; ++q) ref_ham[q] = best_ham[q];
  }
  for (std::size_t c = 1; c < classes; ++c) {
    const std::uint64_t* row = am + c * stride;
    const bool is_ref = ref_ham != nullptr && c == ref_class;
    for (std::size_t q = 0; q < count; ++q) {
      const std::uint64_t ham = xor_pop(row, queries[q], stride);
      if (ham < best_ham[q]) {
        best_ham[q] = ham;
        best_class[q] = static_cast<std::uint32_t>(c);
      }
      if (is_ref) ref_ham[q] = ham;
    }
  }
}

// Unnamed, so every backend TU instantiates its own copy with its own ISA
// flags (and the SWAR tail of an AVX TU never folds into the SWAR TU's).
namespace {

/// Bundle vector ops on one uint64 word: the SWAR backend's block and
/// every wider backend's tail. A backend's vector type supplies the same
/// members over kWords words per block.
struct WordOps {
  using T = std::uint64_t;
  static constexpr std::size_t kWords = 1;
  static T zero() noexcept { return 0; }
  static T ones() noexcept { return ~0ULL; }
  static T load(const std::uint64_t* p) noexcept { return *p; }
  static void store(std::uint64_t* p, T v) noexcept { *p = v; }
  static T bxor(T a, T b) noexcept { return a ^ b; }
  static T band(T a, T b) noexcept { return a & b; }
  static T bor(T a, T b) noexcept { return a | b; }
  /// ~a & b.
  static T andnot(T a, T b) noexcept { return ~a & b; }
  static T xor3(T a, T b, T c) noexcept { return a ^ b ^ c; }
  static T maj(T a, T b, T c) noexcept { return (a & b) | (c & (a ^ b)); }

  /// Lane drain of one block: lanes[i] += count - 2*cnt_i for i <
  /// \p lanes_used, where bit j of cnt_i is bit i % 64 of
  /// slab[j * slab_stride + i / 64] (the block's count slices, level-major).
  /// Scalar, so it serves any block width.
  static void add_counts(const std::uint64_t* slab, std::size_t slab_stride,
                         std::size_t levels, std::size_t count,
                         std::int32_t* lanes, std::size_t lanes_used) noexcept {
    for (std::size_t i = 0; i < lanes_used; ++i) {
      std::int32_t cnt = 0;
      for (std::size_t j = 0; j < levels; ++j) {
        cnt |= static_cast<std::int32_t>(
                   (slab[j * slab_stride + i / 64] >> (i % 64)) & 1u)
               << j;
      }
      lanes[i] += static_cast<std::int32_t>(count) - 2 * cnt;
    }
  }
};

/// kN independent O vectors per block: the same op on each, so one pass
/// over the pixel rows feeds kN carry-save trees at once (more loads in
/// flight per row, adjacent cache lines of a row read together).
template <typename O, std::size_t kN>
struct Unrolled {
  struct T {
    typename O::T v[kN];
  };
  static constexpr std::size_t kWords = O::kWords * kN;
  template <typename F>
  static T map(F&& f) noexcept {
    T out;
    for (std::size_t i = 0; i < kN; ++i) out.v[i] = f(i);
    return out;
  }
  static T zero() noexcept {
    return map([](std::size_t) { return O::zero(); });
  }
  static T ones() noexcept {
    return map([](std::size_t) { return O::ones(); });
  }
  static T load(const std::uint64_t* p) noexcept {
    return map([p](std::size_t i) { return O::load(p + i * O::kWords); });
  }
  static void store(std::uint64_t* p, T v) noexcept {
    for (std::size_t i = 0; i < kN; ++i) O::store(p + i * O::kWords, v.v[i]);
  }
  static T bxor(T a, T b) noexcept {
    return map([&](std::size_t i) { return O::bxor(a.v[i], b.v[i]); });
  }
  static T band(T a, T b) noexcept {
    return map([&](std::size_t i) { return O::band(a.v[i], b.v[i]); });
  }
  static T bor(T a, T b) noexcept {
    return map([&](std::size_t i) { return O::bor(a.v[i], b.v[i]); });
  }
  static T andnot(T a, T b) noexcept {
    return map([&](std::size_t i) { return O::andnot(a.v[i], b.v[i]); });
  }
  static T xor3(T a, T b, T c) noexcept {
    return map(
        [&](std::size_t i) { return O::xor3(a.v[i], b.v[i], c.v[i]); });
  }
  static T maj(T a, T b, T c) noexcept {
    return map([&](std::size_t i) { return O::maj(a.v[i], b.v[i], c.v[i]); });
  }
  static void add_counts(const std::uint64_t* slab, std::size_t slab_stride,
                         std::size_t levels, std::size_t count,
                         std::int32_t* lanes, std::size_t lanes_used) noexcept {
    constexpr std::size_t kPartLanes = O::kWords * 64;
    for (std::size_t i = 0; i < kN && i * kPartLanes < lanes_used; ++i) {
      const std::size_t left = lanes_used - i * kPartLanes;
      O::add_counts(slab + i * O::kWords, slab_stride, levels, count,
                    lanes + i * kPartLanes,
                    left < kPartLanes ? left : kPartLanes);
    }
  }
};

/// Count bits above the four Harley–Seal registers: enough for count >> 4
/// sixteens (count < 2^30 by the kernel contract).
constexpr std::size_t kMaxHighLevels = 26;

/// The arguments of one bundle_bound call (kernels.hpp), plus the number
/// of count bits kept above the Harley–Seal registers.
struct BundleJob {
  const std::uint64_t* positions;
  std::size_t stride;
  const std::uint64_t* const* value_rows;
  std::size_t count;
  std::size_t bits;
  std::size_t high_levels;
  const std::uint64_t* tie_break;
  std::uint64_t* out_packed;
  std::int32_t* out_lanes;
};

/// One carry-save adder with its running sum in place:
/// (sum, return) <- (sum ^ b ^ c, maj(sum, b, c)).
template <typename V>
inline typename V::T csa(typename V::T& sum, typename V::T b,
                         typename V::T c) noexcept {
  const typename V::T carry = V::maj(sum, b, c);
  sum = V::xor3(sum, b, c);
  return carry;
}

/// The V::kWords-word block of \p job starting at packed word \p word.
/// Counts live in registers: ones/twos/fours/eights are bits 0-3 of every
/// lane's count (Harley–Seal, 16 pixels per round), high[] the bits above,
/// fed one weight-16 carry per round. Eq. 1 is an MSB-down compare of the
/// count against count / 2 in the same registers; the int32 lanes, when
/// asked for, are drained from the same count slices.
template <typename V>
HDTEST_HOT_PATH inline void bundle_block(const BundleJob& job,
                                         std::size_t word) noexcept {
  using T = typename V::T;
  T ones = V::zero();
  T twos = V::zero();
  T fours = V::zero();
  T eights = V::zero();
  T high[kMaxHighLevels];
  const std::size_t high_levels = job.high_levels;
  for (std::size_t k = 0; k < high_levels; ++k) high[k] = V::zero();
  const std::uint64_t* pos = job.positions + word;
  const std::uint64_t* const* val = job.value_rows;
  const auto next = [&]() noexcept {
    const T bound = V::bxor(V::load(pos), V::load(*val + word));
    pos += job.stride;
    ++val;
    return bound;
  };
  const auto ripple_high = [&](T carry) noexcept {
    for (std::size_t k = 0; k < high_levels; ++k) {
      const T up = V::band(high[k], carry);
      high[k] = V::bxor(high[k], carry);
      carry = up;
    }
  };
  const std::size_t count = job.count;
  std::size_t p = 0;
  for (; p + 16 <= count; p += 16) {
    T twos_a = csa<V>(ones, next(), next());
    T twos_b = csa<V>(ones, next(), next());
    T fours_a = csa<V>(twos, twos_a, twos_b);
    twos_a = csa<V>(ones, next(), next());
    twos_b = csa<V>(ones, next(), next());
    T fours_b = csa<V>(twos, twos_a, twos_b);
    const T eights_a = csa<V>(fours, fours_a, fours_b);
    twos_a = csa<V>(ones, next(), next());
    twos_b = csa<V>(ones, next(), next());
    fours_a = csa<V>(twos, twos_a, twos_b);
    twos_a = csa<V>(ones, next(), next());
    twos_b = csa<V>(ones, next(), next());
    fours_b = csa<V>(twos, twos_a, twos_b);
    const T eights_b = csa<V>(fours, fours_a, fours_b);
    ripple_high(csa<V>(eights, eights_a, eights_b));
  }
  for (; p < count; ++p) {
    // Fewer than 16 pixels left: weight-1 half-adder ripple.
    T carry = next();
    const auto half_add = [&carry](T& level) noexcept {
      const T up = V::band(level, carry);
      level = V::bxor(level, carry);
      carry = up;
    };
    half_add(ones);
    half_add(twos);
    half_add(fours);
    half_add(eights);
    ripple_high(carry);
  }

  // Eq. 1: element -1 iff cnt > count/2; cnt == count/2 is a zero sum (a
  // tie) only when count is even.
  const std::size_t half = count / 2;
  T greater = V::zero();
  T equal = V::ones();
  const auto compare = [&](T level, std::size_t j) noexcept {
    if ((half >> j) & 1u) {
      equal = V::band(equal, level);
    } else {
      greater = V::bor(greater, V::band(equal, level));
      equal = V::andnot(level, equal);
    }
  };
  for (std::size_t k = high_levels; k-- > 0;) compare(high[k], k + 4);
  compare(eights, 3);
  compare(fours, 2);
  compare(twos, 1);
  compare(ones, 0);
  T result = greater;
  if (count % 2 == 0) {
    result = V::bor(result, V::band(equal, V::load(job.tie_break + word)));
  }
  V::store(job.out_packed + word, result);

  if (job.out_lanes != nullptr) {
    std::uint64_t slab[(4 + kMaxHighLevels) * V::kWords];
    V::store(slab, ones);
    V::store(slab + V::kWords, twos);
    V::store(slab + 2 * V::kWords, fours);
    V::store(slab + 3 * V::kWords, eights);
    for (std::size_t k = 0; k < high_levels; ++k) {
      V::store(slab + (4 + k) * V::kWords, high[k]);
    }
    const std::size_t first_lane = word * 64;
    const std::size_t left = job.bits - first_lane;
    V::add_counts(slab, V::kWords, 4 + high_levels, count,
                  job.out_lanes + first_lane,
                  left < V::kWords * 64 ? left : V::kWords * 64);
  }
}

/// Runs V blocks from packed word \p w while whole blocks fit, advancing
/// \p w past them.
template <typename V>
HDTEST_HOT_PATH inline void bundle_blocks(const BundleJob& job,
                                          std::size_t words,
                                          std::size_t& w) noexcept {
  for (; w + V::kWords <= words; w += V::kWords) bundle_block<V>(job, w);
}

/// The bundle_bound kernel: whole blocks of each of \p Blocks in turn
/// (widest first), then WordOps for whatever words are left, so no word
/// count needs to be a multiple of any vector width.
template <typename... Blocks>
HDTEST_HOT_PATH inline void bundle_bound_generic(
    const std::uint64_t* positions, std::size_t stride,
    const std::uint64_t* const* value_rows, std::size_t count,
    std::size_t bits, const std::uint64_t* tie_break,
    std::uint64_t* out_packed, std::int32_t* out_lanes) noexcept {
  const std::size_t words = (bits + 63) / 64;
  if (words == 0) return;
  const BundleJob job{positions,
                      stride,
                      value_rows,
                      count,
                      bits,
                      static_cast<std::size_t>(std::bit_width(count >> 4)),
                      tie_break,
                      out_packed,
                      out_lanes};
  std::size_t w = 0;
  (bundle_blocks<Blocks>(job, words, w), ...);
  bundle_blocks<WordOps>(job, words, w);
  if (bits % 64 != 0) out_packed[words - 1] &= (1ULL << (bits % 64)) - 1;
}

}  // namespace

}  // namespace hdtest::util::simd::detail
