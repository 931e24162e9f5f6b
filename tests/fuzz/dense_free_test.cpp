// The dense-free guarantee of the fuzz loop (acceptance gate of the packed
// encoding pipeline): once a seed context is prepared, fuzz_one's
// steady-state generation loop must materialize ZERO dense Hypervectors and
// perform ZERO PackedHv::from_dense re-packs — every mutant query lives its
// whole life in packed sign-bit space. Verified with the process-wide
// instrumentation counters (hdc/instrument.hpp) rather than call-site
// review. Also asserts that the prepared-seed path is bit-identical to the
// self-contained fuzz_one overload, and that the other fuzz loops
// (cross-model differential, coverage-guided, scheduled, minimization) query
// the model on the same packed path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>

#include "data/synthetic_digits.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/schedule.hpp"
#include "hdc/classifier.hpp"
#include "hdc/instrument.hpp"

namespace hdtest::fuzz {
namespace {

class DenseFreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 19;
    pair_ = std::make_unique<data::TrainTestPair>(
        data::make_digit_train_test(30, 5, 99));
    model_ = std::make_unique<hdc::HdcClassifier>(config, 28, 28, 10);
    model_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    model_.reset();
    pair_.reset();
  }

  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::Dataset& test_images() { return pair_->test; }
  static const data::Dataset& train_images() { return pair_->train; }

  /// Expects no dense Hypervector and no from_dense re-pack since the last
  /// instrument::reset().
  static void expect_dense_free(const char* what) {
    EXPECT_EQ(hdc::instrument::dense_hv_materializations(), 0u)
        << what << " materialized a dense Hypervector";
    EXPECT_EQ(hdc::instrument::packed_from_dense(), 0u)
        << what << " re-packed a dense query via PackedHv::from_dense";
  }

 private:
  static std::unique_ptr<hdc::HdcClassifier> model_;
  static std::unique_ptr<data::TrainTestPair> pair_;
};

std::unique_ptr<hdc::HdcClassifier> DenseFreeTest::model_;
std::unique_ptr<data::TrainTestPair> DenseFreeTest::pair_;

TEST_F(DenseFreeTest, SteadyStateLoopIsDenseFree) {
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 8;
  const Fuzzer fuzzer(model(), strategy, config);

  // Setup (model training, seed warm-up) may touch dense vectors; the
  // guarantee starts once the seed context exists.
  const auto seed = fuzzer.prepare_seed(test_images().images[0]);
  util::Rng rng(7);
  hdc::instrument::reset();
  const auto outcome = fuzzer.fuzz_one(test_images().images[0], rng, seed);
  EXPECT_GT(outcome.encodes, 1u);  // the loop actually encoded mutants
  EXPECT_EQ(hdc::instrument::dense_hv_materializations(), 0u)
      << "fuzz_one materialized a dense Hypervector in its generation loop";
  EXPECT_EQ(hdc::instrument::packed_from_dense(), 0u)
      << "fuzz_one re-packed a dense query via PackedHv::from_dense";
  // The blocked AM sweep returns the reference-class score with the argmax,
  // so the only standalone row walk allowed is the parent seed's fitness —
  // exactly one per fuzz_one, never one per mutant.
  EXPECT_EQ(hdc::instrument::am_row_walks(), 1u)
      << "fuzz_one re-walked a class row per mutant instead of consuming "
         "the sweep's reference-class score";
}

TEST_F(DenseFreeTest, FullEncoderPathIsAlsoDenseFree) {
  // With the incremental encoder disabled every mutant takes the bit-sliced
  // full encode; that path must be dense-free too.
  const GaussNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 3;
  config.use_incremental_encoder = false;
  const Fuzzer fuzzer(model(), strategy, config);
  const auto seed = fuzzer.prepare_seed(test_images().images[1]);
  util::Rng rng(8);
  hdc::instrument::reset();
  (void)fuzzer.fuzz_one(test_images().images[1], rng, seed);
  EXPECT_EQ(hdc::instrument::dense_hv_materializations(), 0u);
  EXPECT_EQ(hdc::instrument::packed_from_dense(), 0u);
}

TEST_F(DenseFreeTest, PrepareSeedIsDenseFree) {
  // Even the warm-up full encode stays packed: bit-sliced accumulation plus
  // the fused bipolarize produce the reference query with no dense HV.
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  hdc::instrument::reset();
  const auto seed = fuzzer.prepare_seed(test_images().images[2]);
  EXPECT_EQ(seed.reference_label, model().predict(test_images().images[2]));
  EXPECT_EQ(hdc::instrument::packed_from_dense(), 0u);
}

TEST_F(DenseFreeTest, PreparedSeedMatchesSelfContainedFuzzOne) {
  const RandNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  const auto& input = test_images().images[3];
  const auto seed = fuzzer.prepare_seed(input);
  for (std::uint64_t s = 0; s < 3; ++s) {
    util::Rng ra(s);
    util::Rng rb(s);
    const auto with_seed = fuzzer.fuzz_one(input, ra, seed);
    const auto self_contained = fuzzer.fuzz_one(input, rb);
    EXPECT_EQ(with_seed.success, self_contained.success);
    EXPECT_EQ(with_seed.iterations, self_contained.iterations);
    EXPECT_EQ(with_seed.encodes, self_contained.encodes);
    EXPECT_EQ(with_seed.reference_label, self_contained.reference_label);
    if (with_seed.success) {
      EXPECT_EQ(with_seed.adversarial, self_contained.adversarial);
      EXPECT_EQ(with_seed.adversarial_label, self_contained.adversarial_label);
    }
  }
}

TEST_F(DenseFreeTest, StoredCodebooksNeverRematerializeARow) {
  // Codebook rows are built once with the encoder and read in place from
  // then on: warm-up and the steady-state loop never regenerate a codebook
  // from the seed or re-pack one.
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const Fuzzer fuzzer(model(), strategy, fuzz_config);
  hdc::instrument::reset();
  const auto seed = fuzzer.prepare_seed(test_images().images[0]);
  util::Rng rng(3);
  (void)fuzzer.fuzz_one(test_images().images[0], rng, seed);
  EXPECT_EQ(hdc::instrument::item_memory_generations(), 0u)
      << "the fuzz loop regenerated a codebook from the seed";
  EXPECT_EQ(hdc::instrument::packed_codebook_builds(), 0u)
      << "the fuzz loop re-packed a codebook";
}

TEST_F(DenseFreeTest, PrepareSeedsMatchesPerInputForAnyWorkerCount) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  const auto inputs =
      std::span<const data::Image>(test_images().images).first(6);
  for (const std::size_t workers : {1u, 4u}) {
    const auto seeds = fuzzer.prepare_seeds(inputs, workers);
    ASSERT_EQ(seeds.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto expected = fuzzer.prepare_seed(inputs[i]);
      ASSERT_EQ(seeds[i].reference, expected.reference) << "workers=" << workers;
      ASSERT_EQ(seeds[i].reference_label, expected.reference_label);
    }
  }
}

TEST_F(DenseFreeTest, CrossModelFuzzOneIsDenseFree) {
  hdc::ModelConfig config;
  config.dim = 2048;
  config.seed = 20;
  hdc::HdcClassifier other(config, 28, 28, 10);
  other.fit(train_images());
  const RandNoiseMutation strategy;
  FuzzConfig fuzz_config;
  fuzz_config.iter_times = 4;
  const CrossModelFuzzer fuzzer(model(), other, strategy, fuzz_config);
  // An input both models label alike, so the mutant loop actually runs.
  std::size_t index = 0;
  while (index < test_images().size() &&
         model().predict(test_images().images[index]) !=
             other.predict(test_images().images[index])) {
    ++index;
  }
  ASSERT_LT(index, test_images().size());
  util::Rng rng(9);
  hdc::instrument::reset();
  const auto outcome = fuzzer.fuzz_one(test_images().images[index], rng);
  EXPECT_FALSE(outcome.skipped);
  EXPECT_GT(outcome.encodes, 2u);
  expect_dense_free("CrossModelFuzzer::fuzz_one");
}

TEST_F(DenseFreeTest, CoverageFuzzOneIsDenseFree) {
  const RandNoiseMutation strategy;
  FuzzConfig config;
  config.iter_times = 4;
  CoverageFuzzer fuzzer(model(), strategy, config);
  util::Rng rng(10);
  hdc::instrument::reset();
  const auto outcome = fuzzer.fuzz_one(test_images().images[4], rng);
  EXPECT_GT(outcome.base.encodes, 1u);
  expect_dense_free("CoverageFuzzer::fuzz_one");
}

TEST_F(DenseFreeTest, ScheduledCampaignIsDenseFree) {
  const RandNoiseMutation strategy;
  ScheduleConfig config;
  config.total_encodes = 300;
  config.round_encodes = 50;
  const auto inputs = test_images().take(3);
  hdc::instrument::reset();
  const auto result = run_scheduled_campaign(model(), strategy, inputs, config);
  EXPECT_GT(result.total_encodes, inputs.size());
  expect_dense_free("run_scheduled_campaign");
}

TEST_F(DenseFreeTest, MinimizeAdversarialIsDenseFree) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  const auto& original = test_images().images[0];
  util::Rng rng(11);
  const auto finding = fuzzer.fuzz_one(original, rng);
  ASSERT_TRUE(finding.success);
  hdc::instrument::reset();
  const auto result =
      minimize_adversarial(model(), original, finding.adversarial);
  EXPECT_GT(result.encodes, 2u);
  expect_dense_free("minimize_adversarial");
}

}  // namespace
}  // namespace hdtest::fuzz
