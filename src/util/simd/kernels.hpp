#pragma once
/// \file kernels.hpp
/// The kernel table: the one dispatch layer for the packed hot paths.
///
/// Every steady-state cycle of the fuzz loop (mutate -> encode -> AM
/// distance, paper Alg. 1) burns inside five word-parallel kernels: XOR +
/// popcount, the fused full-image bundle (register-resident Harley–Seal
/// counting plus Eq. 1), the delta re-encoder's patch pass, Eq. 1 over its
/// bit-sliced lanes, and the query-blocked associative-memory sweep. These
/// map directly onto wide vector lanes (Schmuck et al., JETC'19), so each
/// kernel is provided by several backends behind one function-pointer
/// table:
///
///   avx512  512-bit lanes with native VPOPCNTDQ popcounts (requires
///           AVX-512F + VPOPCNTDQ).
///   avx2    256-bit lanes; popcount via the vpshufb nibble-LUT + psadbw
///           reduction (Mula's method).
///   neon    aarch64 only: vcnt-based popcounts; the remaining kernels fall
///           back to SWAR.
///   swar    portable uint64 SWAR — always compiled, always available; the
///           fallback when nothing wider is supported.
///   oracle  straight-line scalar loops sharing no code with the others —
///           the executable specification every backend must match
///           bit-for-bit. Always available, never auto-selected.
///
/// Callers (the encoders, PackedAssocMemory, MappedModel serving) call
/// kernels() and invoke the table directly. One backend is selected at
/// startup: explicitly via the HDTEST_KERNEL_BACKEND environment variable
/// ("avx512" / "avx2" / "neon" / "swar" / "oracle"; unknown or unsupported
/// values warn and fall back), otherwise the best backend the CPU supports
/// (detected via CPUID + XGETBV so AVX state must actually be OS-enabled).
/// All backends produce identical bits for identical inputs — the property
/// tests diff every available backend against oracle.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace hdtest::util::simd {

/// Function-pointer table of one kernel backend. All functions are pure
/// word/lane transforms with caller-owned storage; none allocate or throw.
struct Kernels {
  /// Backend identifier: "avx512", "avx2", "neon", "swar", or "oracle".
  const char* name;

  /// popcount(a[i] ^ b[i]) summed over \p words words (packed Hamming
  /// distance — the inference kernel).
  std::size_t (*xor_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) noexcept;

  /// The full-image bundling kernel (paper Sec. III-A, steps 2-3): binds
  /// pixel p's position row positions[p * stride ..] with its value row
  /// value_rows[p] (XOR of sign bits), counts per lane i < \p bits
  ///   cnt_i = #{p < count : bit i of that bound vector is set}
  /// and applies Eq. 1 to the bundle sum count - 2*cnt_i:
  ///   out_packed bit i = 1 (element -1) iff 2*cnt_i > count, or
  ///   2*cnt_i == count (count even) with a set tie_break bit.
  /// Writes words_for_bits(bits) words; bits past \p bits are zero. When
  /// \p out_lanes is non-null it also adds count - 2*cnt_i into
  /// out_lanes[i] for every i < bits (the int32 bundle Accumulator).
  /// \pre stride >= words_for_bits(bits), every row holds that many
  /// words, and count < 2^30.
  void (*bundle_bound)(const std::uint64_t* positions, std::size_t stride,
                       const std::uint64_t* const* value_rows,
                       std::size_t count, std::size_t bits,
                       const std::uint64_t* tie_break,
                       std::uint64_t* out_packed,
                       std::int32_t* out_lanes) noexcept;

  /// The delta re-encoder's patch kernel: adds the one-pixel value swap
  /// old -> new at packed position row \p pos into a biased slice bank as
  /// two weight-2 ripple-carry adds per word,
  ///   2*(pos^old)_bit + 2*(~(pos^new))_bit,
  /// CSA-combined so the common case ripples once. The caller's bias
  /// headroom guarantees no carry escapes the bank (see
  /// IncrementalPixelEncoder::rebuild_base_slices).
  void (*csa_patch)(std::uint64_t* slices, std::size_t words,
                    std::size_t levels, const std::uint64_t* pos,
                    const std::uint64_t* old_val,
                    const std::uint64_t* new_val) noexcept;

  /// Eq. 1 over a *bit-sliced biased* lane bank (the delta re-encoder's
  /// representation): per lane, compare the stored \p levels-bit count
  /// against \p threshold MSB-down — less-than decides sign (-1), exact
  /// equality is the Eq. 1 tie resolved from \p tie_break. The caller masks
  /// the tail word.
  void (*slice_bipolarize)(const std::uint64_t* slices, std::size_t words,
                           std::size_t levels, std::uint32_t threshold,
                           const std::uint64_t* tie_break,
                           std::uint64_t* out) noexcept;

  /// Query-blocked associative-memory sweep: classes outer, queries inner,
  /// so every class prototype row is streamed exactly once per block while
  /// the block of queries stays cache-resident. Per query q writes the
  /// argmin-Hamming class (lowest index wins ties, matching the scalar
  /// predict exactly) and its Hamming distance; when \p ref_ham is non-null
  /// additionally records the distance to \p ref_class (the fuzzer's
  /// fitness ingredient) in the same pass.
  void (*am_sweep)(const std::uint64_t* am, std::size_t classes,
                   std::size_t stride, const std::uint64_t* const* queries,
                   std::size_t count, std::uint32_t* best_class,
                   std::uint64_t* best_ham, std::uint64_t* ref_ham,
                   std::uint32_t ref_class) noexcept;
};

/// The active backend. Selected once on first use (HDTEST_KERNEL_BACKEND
/// override, else best supported); subsequent calls are one atomic load.
[[nodiscard]] const Kernels& kernels() noexcept;

/// Every backend compiled into this binary (SWAR and oracle always;
/// AVX2/AVX-512 when the compiler could target them; NEON on aarch64) —
/// including ones this CPU cannot run. Preference order, oracle last.
[[nodiscard]] std::span<const Kernels* const> registered_kernels() noexcept;

/// Compiled backends this CPU can actually execute (the set the property
/// tests sweep). Never empty: SWAR and oracle are always present.
[[nodiscard]] std::span<const Kernels* const> available_kernels() noexcept;

/// Test hook: forces the named backend (must be available). Passing nullptr
/// or "" re-runs the default selection, honoring HDTEST_KERNEL_BACKEND.
/// \throws std::invalid_argument for a name that is unknown, not compiled
/// in, or unsupported by this CPU.
void set_kernels_for_testing(const char* name);

/// Space-separated CPU capability summary for bench provenance, e.g.
/// "avx2 avx512f avx512vpopcntdq" (or "baseline" when none detected).
[[nodiscard]] std::string cpu_features_string();

}  // namespace hdtest::util::simd
