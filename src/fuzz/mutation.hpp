#pragma once
/// \file mutation.hpp
/// The mutation strategies of HDTest (paper Table I).
///
/// | name      | description (paper)                                  |
/// |-----------|------------------------------------------------------|
/// | row_rand  | randomly mutate all pixels in one single row         |
/// | col_rand  | randomly mutate all pixels in one single column      |
/// | rand      | apply random noise over the entire image             |
/// | gauss     | apply gaussian noise over the entire image           |
/// | shift     | apply horizontal or vertical shifting to the image   |
///
/// Strategies are stateless (all randomness flows through the caller's Rng),
/// so one instance can serve many threads. Strategies may be used jointly
/// via CompositeMutation (paper: "independently or jointly").
///
/// Parameter defaults are calibrated to reproduce the *shape* of the
/// paper's Table II: rand has the smallest distance but the most
/// iterations, gauss converges in 1-2 iterations at moderate distance,
/// row/col mutations produce large distances, and shift's distances are
/// large-but-not-meaningful.

#include <memory>
#include <string>
#include <vector>

#include "data/image.hpp"
#include "util/rng.hpp"

namespace hdtest::fuzz {

/// Interface: produce a mutant of a seed image.
class MutationStrategy {
 public:
  virtual ~MutationStrategy() = default;

  /// Strategy name as used in reports and the CLI ("gauss", "rand", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Returns a mutated copy of \p seed. Must not modify \p seed.
  [[nodiscard]] virtual data::Image mutate(const data::Image& seed,
                                           util::Rng& rng) const = 0;
};

/// Shared knob for the row/column strategies: each pixel of the chosen line
/// receives an independent non-zero uniform delta in [-amplitude, amplitude].
///
/// Additive noise (rather than wholesale replacement) is what the paper's
/// own Table II numbers imply: whole-row replacement would give L2 ~ 3 per
/// row, but the paper reports row&col L1 = 9.45 / L2 = 0.65, which matches
/// moderate per-pixel deltas accumulated over several rows.
struct LineNoiseParams {
  int amplitude = 45;  ///< max |delta| in gray levels (>= 1)
};

/// row_rand: randomly mutates all pixels in one uniformly-chosen row.
class RowRandMutation final : public MutationStrategy {
 public:
  RowRandMutation() : RowRandMutation(LineNoiseParams{}) {}
  explicit RowRandMutation(LineNoiseParams params);

  [[nodiscard]] std::string name() const override { return "row_rand"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;
  [[nodiscard]] const LineNoiseParams& params() const noexcept { return params_; }

 private:
  LineNoiseParams params_;
};

/// col_rand: randomly mutates all pixels in one uniformly-chosen column.
class ColRandMutation final : public MutationStrategy {
 public:
  ColRandMutation() : ColRandMutation(LineNoiseParams{}) {}
  explicit ColRandMutation(LineNoiseParams params);

  [[nodiscard]] std::string name() const override { return "col_rand"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;
  [[nodiscard]] const LineNoiseParams& params() const noexcept { return params_; }

 private:
  LineNoiseParams params_;
};

/// row & col rand: per mutation, flips a fair coin between row_rand and
/// col_rand — the joint strategy evaluated in the paper's Table II.
class RowColRandMutation final : public MutationStrategy {
 public:
  RowColRandMutation() : RowColRandMutation(LineNoiseParams{}) {}
  explicit RowColRandMutation(LineNoiseParams params);

  [[nodiscard]] std::string name() const override { return "row_col_rand"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;

 private:
  RowRandMutation row_;
  ColRandMutation col_;
};

/// rand: sparse random noise — perturbs \c pixels_per_step uniformly-chosen
/// pixels by a uniform delta in [-amplitude, +amplitude] (clamped).
///
/// Under the paper's random value memory, *any* gray-level change replaces
/// the pixel's value HV with an orthogonal one, so small deltas carry the
/// same semantic punch as large ones while keeping L1/L2 minimal — which is
/// exactly Table II's profile for rand (lowest distance, most iterations).
class RandNoiseMutation final : public MutationStrategy {
 public:
  struct Params {
    std::size_t pixels_per_step = 3;  ///< pixels touched per mutation
    int amplitude = 12;               ///< max |delta| in gray levels (>= 1)
  };

  RandNoiseMutation() : RandNoiseMutation(Params{}) {}
  explicit RandNoiseMutation(Params params);

  [[nodiscard]] std::string name() const override { return "rand"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// gauss: dense Gaussian noise over the entire image, clamped to [0, 255].
class GaussNoiseMutation final : public MutationStrategy {
 public:
  struct Params {
    double stddev = 2.0;  ///< noise standard deviation in gray levels (> 0)
  };

  GaussNoiseMutation() : GaussNoiseMutation(Params{}) {}
  explicit GaussNoiseMutation(Params params);

  [[nodiscard]] std::string name() const override { return "gauss"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// shift: shifts the whole image by one pixel horizontally or vertically
/// (uniform over the four directions); vacated pixels become background (0).
/// Pixel *values* are never modified — only their locations (paper IV).
class ShiftMutation final : public MutationStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "shift"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;

  /// The four shift directions (exposed for tests).
  enum class Direction { kLeft, kRight, kUp, kDown };

  /// Deterministic single shift (used by tests and by mutate()).
  [[nodiscard]] static data::Image shift(const data::Image& seed, Direction dir);
};

/// block_rand: adds uniform noise to every pixel inside one random
/// axis-aligned rectangle (an extension in the spirit of Table I — localized
/// structured perturbation between row/col lines and whole-image noise).
class BlockRandMutation final : public MutationStrategy {
 public:
  struct Params {
    std::size_t max_block = 6;  ///< max block side length (>= 1)
    int amplitude = 45;         ///< max |delta| per pixel (>= 1)
  };

  BlockRandMutation() : BlockRandMutation(Params{}) {}
  explicit BlockRandMutation(Params params);

  [[nodiscard]] std::string name() const override { return "block_rand"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  Params params_;
};

/// salt_pepper: sets k random pixels to pure black or pure white — the
/// classic impulse-noise channel model (extension).
class SaltPepperMutation final : public MutationStrategy {
 public:
  struct Params {
    std::size_t pixels_per_step = 3;  ///< pixels flipped per mutation (>= 1)
  };

  SaltPepperMutation() : SaltPepperMutation(Params{}) {}
  explicit SaltPepperMutation(Params params);

  [[nodiscard]] std::string name() const override { return "salt_pepper"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;

 private:
  Params params_;
};

/// brightness: adds one global offset to every pixel (clamped) — a
/// sensor-exposure channel model (extension). Like shift, it changes many
/// pixels coherently rather than independently.
class BrightnessMutation final : public MutationStrategy {
 public:
  struct Params {
    int max_offset = 25;  ///< max |global offset| per mutation (>= 1)
  };

  BrightnessMutation() : BrightnessMutation(Params{}) {}
  explicit BrightnessMutation(Params params);

  [[nodiscard]] std::string name() const override { return "brightness"; }
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;

 private:
  Params params_;
};

/// Joint strategy: each mutate() call delegates to one uniformly-chosen
/// sub-strategy (paper: strategies "can be used independently or jointly").
class CompositeMutation final : public MutationStrategy {
 public:
  /// \throws std::invalid_argument when \p parts is empty or contains null.
  explicit CompositeMutation(std::vector<std::shared_ptr<const MutationStrategy>> parts);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] data::Image mutate(const data::Image& seed,
                                   util::Rng& rng) const override;

 private:
  std::vector<std::shared_ptr<const MutationStrategy>> parts_;
};

/// Factory by name: "row_rand", "col_rand", "row_col_rand", "rand", "gauss",
/// "shift", or a '+'-joined composite such as "gauss+shift".
/// \throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<MutationStrategy> make_strategy(const std::string& name);

/// Names accepted by make_strategy (excluding composites).
[[nodiscard]] std::vector<std::string> strategy_names();

}  // namespace hdtest::fuzz
