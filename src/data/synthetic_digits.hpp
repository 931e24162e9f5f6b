#pragma once
/// \file synthetic_digits.hpp
/// Procedural generator of MNIST-like handwritten digits.
///
/// The paper trains and fuzzes an HDC classifier on MNIST. This environment
/// is offline, so we substitute a stroke-skeleton digit renderer that produces
/// 28x28 8-bit grayscale digits 0-9 with handwriting-like variation:
/// per-image random rotation, anisotropic scale, shear, translation, stroke
/// thickness, stroke wobble, peak intensity, and speckle noise. The classes
/// share the visual confusability structure the paper's per-class analysis
/// relies on (3/8/9 share arcs, 1/7 share a diagonal), and every consumer
/// reads the result through data::Dataset, so real MNIST files can be swapped
/// in via idx.hpp without touching any other code.

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "data/image.hpp"
#include "util/rng.hpp"

namespace hdtest::data {

/// A 2-D point in the unit skeleton coordinate system (x right, y down).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// A digit skeleton: a set of polylines in the unit square.
using Stroke = std::vector<Point>;
using StrokeSet = std::vector<Stroke>;

/// Returns the canonical (un-jittered) skeleton for \p digit in [0, 9].
/// \throws std::invalid_argument for other values.
[[nodiscard]] StrokeSet digit_skeleton(int digit);

/// Random-variation ranges applied per generated image.
///
/// All defaults are tuned so a D=4096 HDC model reaches ~90%+ accuracy (the
/// paper's MNIST operating point) while keeping classes visually confusable.
struct DigitStyle {
  std::size_t width = 28;          ///< Output image width in pixels.
  std::size_t height = 28;         ///< Output image height in pixels.
  double margin = 4.0;             ///< Border (pixels) around the glyph box.
  double max_rotation = 0.18;      ///< Max |rotation| in radians.
  double min_scale = 0.85;         ///< Per-axis scale lower bound.
  double max_scale = 1.12;         ///< Per-axis scale upper bound.
  double max_shear = 0.15;         ///< Max |horizontal shear| factor.
  double max_translate = 0.05;     ///< Max |translation| in unit coords.
  double min_thickness = 0.95;     ///< Stroke radius lower bound (pixels).
  double max_thickness = 1.55;     ///< Stroke radius upper bound (pixels).
  double wobble = 0.012;           ///< Std-dev of skeleton point jitter (unit coords).
  int min_peak = 200;              ///< Minimum stroke peak intensity.
  int max_peak = 255;              ///< Maximum stroke peak intensity.

  /// Dense per-pixel Gaussian noise std-dev (gray levels). Default 0: MNIST
  /// backgrounds are exactly zero, and the paper's random value memory maps
  /// *any* gray-level change to an orthogonal HV, so dense sensor noise
  /// would destroy the class signal the real dataset has. Use the sparse
  /// speckle below for realistic contamination.
  double noise_stddev = 0.0;

  /// Probability that a pixel is replaced by a uniform random gray level
  /// (sparse salt-and-pepper speckle; ~2 pixels per image at the default).
  double speckle_prob = 0.003;

  /// \throws std::invalid_argument when ranges are inverted or dimensions zero.
  void validate() const;
};

/// Renders one digit with random style variation drawn from \p rng.
/// \throws std::invalid_argument for digit outside [0, 9] or a bad style.
[[nodiscard]] Image render_digit(int digit, util::Rng& rng,
                                 const DigitStyle& style = {});

/// Generates a shuffled dataset with \p n_per_class examples of each digit.
///
/// Deterministic in \p seed: the same seed yields the same dataset on every
/// platform and thread count.
[[nodiscard]] Dataset make_digit_dataset(std::size_t n_per_class,
                                         std::uint64_t seed,
                                         const DigitStyle& style = {});

/// Convenience pair used by most experiments: train and test sets generated
/// from independent seeds derived from \p seed.
struct TrainTestPair {
  Dataset train;
  Dataset test;
};
[[nodiscard]] TrainTestPair make_digit_train_test(std::size_t train_per_class,
                                                  std::size_t test_per_class,
                                                  std::uint64_t seed,
                                                  const DigitStyle& style = {});

}  // namespace hdtest::data
