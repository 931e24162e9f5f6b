// Cross-module integration tests: full pipelines exercising the system the
// way the bench harnesses and a downstream user would, plus failure
// injection at module boundaries.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "baseline/unguided.hpp"
#include "data/idx.hpp"
#include "data/synthetic_digits.hpp"
#include "defense/retrain_defense.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/confusion.hpp"
#include "fuzz/minimize.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/report.hpp"
#include "fuzz/schedule.hpp"
#include "fuzz/vulnerability.hpp"
#include "hdc/classifier.hpp"
#include "hdc/serialize.hpp"
#include "hdc/trainer.hpp"
#include "temp_path.hpp"

namespace hdtest {
namespace {

/// One trained model + campaign shared across the pipeline tests.
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 2048;
    config.seed = 61;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(30, 8, 2024));
    model_ = new hdc::HdcClassifier(config, 28, 28, 10);
    model_->fit(pair_->train);

    const fuzz::GaussNoiseMutation strategy;
    const fuzz::Fuzzer fuzzer(*model_, strategy, fuzz::FuzzConfig{});
    fuzz::CampaignConfig campaign_config;
    campaign_config.max_images = 40;
    campaign_config.workers = 2;
    campaign_ = new fuzz::CampaignResult(
        fuzz::run_campaign(fuzzer, pair_->test, campaign_config));
  }
  static void TearDownTestSuite() {
    delete campaign_;
    delete model_;
    delete pair_;
  }
  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::TrainTestPair& pair() { return *pair_; }
  static const fuzz::CampaignResult& campaign() { return *campaign_; }

 private:
  static hdc::HdcClassifier* model_;
  static data::TrainTestPair* pair_;
  static fuzz::CampaignResult* campaign_;
};

hdc::HdcClassifier* PipelineTest::model_ = nullptr;
data::TrainTestPair* PipelineTest::pair_ = nullptr;
fuzz::CampaignResult* PipelineTest::campaign_ = nullptr;

TEST_F(PipelineTest, CampaignVulnerabilityMinimizeChain) {
  // campaign -> vulnerability ranking -> minimize the top finding.
  const auto report = fuzz::analyze_vulnerability(model(), pair().test,
                                                  campaign(), 30);
  ASSERT_GT(report.flipped, 0u);
  const auto top = report.top(1);
  ASSERT_FALSE(top.empty());
  ASSERT_TRUE(top[0].flipped);

  for (const auto& record : campaign().records) {
    if (record.image_index != top[0].image_index || !record.outcome.success) {
      continue;
    }
    const auto& original = pair().test.images[record.image_index];
    const auto minimized = fuzz::minimize_adversarial(
        model(), original, record.outcome.adversarial);
    EXPECT_NE(model().predict(minimized.minimized), model().predict(original));
    EXPECT_LE(minimized.pixels_after, minimized.pixels_before);
    return;
  }
  FAIL() << "top vulnerable record not found in campaign";
}

TEST_F(PipelineTest, CampaignFlipMatrixConsistency) {
  const auto matrix = fuzz::flip_matrix(campaign(), 10);
  EXPECT_EQ(matrix.total(), campaign().successes());
  // Every marginal equals the per-class success count.
  const auto classes = campaign().per_class(10);
  std::size_t out_sum = 0;
  for (std::size_t c = 0; c < 10; ++c) out_sum += matrix.out_of(c);
  EXPECT_EQ(out_sum, campaign().successes());
  (void)classes;
}

TEST_F(PipelineTest, DefenseThenSerializeRoundTrip) {
  // defense retrains the model; the retrained state must survive disk.
  hdc::ModelConfig config;
  config.dim = 2048;
  config.seed = 61;
  hdc::HdcClassifier victim(config, 28, 28, 10);
  victim.fit(pair().train);

  const auto pool = defense::collect_adversarials(campaign(), 10);
  ASSERT_GE(pool.size(), 2u);
  const auto result =
      defense::run_defense(victim, pool, pair().test, defense::DefenseConfig{});
  EXPECT_LT(result.attack_rate_after, result.attack_rate_before);

  std::stringstream buffer;
  hdc::save_model(victim, buffer);
  const auto restored = hdc::load_model(buffer);
  for (std::size_t i = 0; i < pair().test.size(); ++i) {
    EXPECT_EQ(restored.predict(pair().test.images[i]),
              victim.predict(pair().test.images[i]));
  }
}

TEST_F(PipelineTest, ReportsRenderForRealCampaigns) {
  EXPECT_FALSE(fuzz::render_strategy_table({campaign()}).empty());
  EXPECT_FALSE(fuzz::render_per_class_table(campaign(), 10).empty());
  const auto dir = unique_temp_path("hdtest_pipe");
  std::filesystem::create_directories(dir);
  fuzz::write_records_csv(campaign(), (dir / "records.csv").string());
  fuzz::write_summary_csv({campaign()}, (dir / "summary.csv").string());
  EXPECT_GT(std::filesystem::file_size(dir / "records.csv"), 100u);
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, SyntheticDigitsRoundTripThroughIdxFormat) {
  // The synthetic dataset can masquerade as MNIST on disk: write IDX files,
  // reload through the MNIST loader, train, and reach the same accuracy.
  const auto dir = unique_temp_path("hdtest_mnist");
  std::filesystem::create_directories(dir);
  std::vector<std::uint8_t> labels;
  for (const auto label : pair().train.labels) {
    labels.push_back(static_cast<std::uint8_t>(label));
  }
  data::write_idx_images(pair().train.images,
                         (dir / "train-images-idx3-ubyte").string());
  data::write_idx_labels(labels, (dir / "train-labels-idx1-ubyte").string());

  const auto reloaded = data::load_mnist_dataset(dir.string(), /*train=*/true);
  ASSERT_EQ(reloaded.size(), pair().train.size());

  hdc::ModelConfig config;
  config.dim = 2048;
  config.seed = 61;
  hdc::HdcClassifier clone(config, 28, 28, 10);
  clone.fit(reloaded);
  // Identical data + identical seed -> identical model.
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(clone.predict(pair().test.images[i]),
              model().predict(pair().test.images[i]));
  }
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineTest, TrainerThenFuzzPipeline) {
  // A retrained (higher-accuracy) model is still fuzzable; findings remain
  // genuine.
  hdc::ModelConfig config;
  config.dim = 2048;
  config.seed = 62;
  hdc::HdcClassifier refined(config, 28, 28, 10);
  hdc::TrainerConfig trainer;
  trainer.max_epochs = 3;
  const auto history =
      hdc::train_with_retraining(refined, pair().train, pair().test, trainer);
  EXPECT_GE(history.best_val_accuracy, 0.8);

  const fuzz::GaussNoiseMutation strategy;
  const fuzz::Fuzzer fuzzer(refined, strategy, fuzz::FuzzConfig{});
  util::Rng rng(5);
  const auto outcome = fuzzer.fuzz_one(pair().test.images[0], rng);
  if (outcome.success) {
    EXPECT_EQ(refined.predict(outcome.adversarial), outcome.adversarial_label);
  }
}

TEST_F(PipelineTest, ScheduledAndSweepCampaignsAgreeOnSolvability) {
  // Inputs the sweep solves easily must also be solved by the scheduler
  // given a comfortable budget (gauss flips essentially everything).
  const fuzz::GaussNoiseMutation strategy;
  fuzz::ScheduleConfig config;
  config.total_encodes = 5000;
  const auto scheduled = fuzz::run_scheduled_campaign(
      model(), strategy, pair().test.take(10), config);
  EXPECT_GE(scheduled.solved(), 8u);
}

TEST_F(PipelineTest, UnguidedBaselineIntegratesWithVulnerability) {
  const fuzz::GaussNoiseMutation strategy;
  fuzz::CampaignConfig config;
  config.max_images = 10;
  const auto unguided = baseline::run_unguided_campaign(model(), strategy,
                                                        pair().test, config);
  const auto report =
      fuzz::analyze_vulnerability(model(), pair().test, unguided, 30);
  EXPECT_EQ(report.records.size(), 10u);
}

}  // namespace
}  // namespace hdtest
