#pragma once
/// \file config.hpp
/// Model hyper-parameters shared by the encoder, associative memory, and
/// classifier.

#include <cstddef>
#include <cstdint>
#include <string>

namespace hdtest::hdc {

/// How the value item memory maps a scalar (pixel gray level) onto an HV.
enum class ValueStrategy {
  /// Each level gets an independent random HV — the paper's scheme
  /// ("we randomly generate two memories of HVs"). Nearby gray levels are
  /// orthogonal, which is what makes HDC models sensitive to tiny noise.
  kRandom,
  /// Classic level encoding: consecutive levels differ in a few flipped
  /// positions, endpoints are ~orthogonal. Preserves ordinal structure.
  kLevel,
  /// Thermometer code: level i is +1 on the first i/(L-1) fraction of a
  /// fixed random permutation of positions, -1 elsewhere.
  kThermometer,
};

/// Similarity metric used by associative-memory queries. The paper uses
/// cosine; Hamming gives identical rankings for bipolar HVs (affine relation)
/// and is provided for the packed fast path.
enum class Similarity { kCosine, kHamming };

/// Parses "random" / "level" / "thermometer" (exact match).
/// \throws std::invalid_argument otherwise.
[[nodiscard]] ValueStrategy parse_value_strategy(const std::string& name);

/// Human-readable name of a strategy.
[[nodiscard]] std::string to_string(ValueStrategy strategy);
[[nodiscard]] std::string to_string(Similarity metric);

/// Hyper-parameters of one HDC image-classification model (paper section III).
struct ModelConfig {
  /// Hypervector dimensionality D. The paper's HDC literature uses ~10000;
  /// experiments here default to 4096 which reaches the same accuracy band
  /// on the synthetic digits while keeping bench runtimes short.
  std::size_t dim = 4096;

  /// Master seed: item memories, tie-break vectors, and the AM derive all
  /// their randomness from this value.
  std::uint64_t seed = 0x1d7e57ULL;  // spells "hdtest"

  /// Number of distinct scalar levels in the value memory (256 gray levels).
  /// The paper says "255 HVs" for pixel range 0..255, one short of the 256
  /// distinct 8-bit gray levels, so we use 256.
  std::size_t value_levels = 256;

  /// Value item-memory construction scheme.
  ValueStrategy value_strategy = ValueStrategy::kRandom;

  /// Query similarity metric.
  Similarity similarity = Similarity::kCosine;

  /// \throws std::invalid_argument on invalid combinations.
  void validate() const;
};

}  // namespace hdtest::hdc
