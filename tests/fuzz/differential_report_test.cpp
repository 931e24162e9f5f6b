// Tests for fuzz/differential (cross-model oracle) and fuzz/report.

#include "fuzz/differential.hpp"
#include "fuzz/report.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "data/synthetic_digits.hpp"
#include "hdc/classifier.hpp"
#include "temp_path.hpp"

namespace hdtest::fuzz {
namespace {

class DifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new data::TrainTestPair(data::make_digit_train_test(20, 4, 55));
    hdc::ModelConfig ca;
    ca.dim = 1024;
    ca.seed = 1;
    hdc::ModelConfig cb;
    cb.dim = 1024;
    cb.seed = 2;  // independently-seeded twin
    model_a_ = new hdc::HdcClassifier(ca, 28, 28, 10);
    model_b_ = new hdc::HdcClassifier(cb, 28, 28, 10);
    model_a_->fit(pair_->train);
    model_b_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    delete model_a_;
    delete model_b_;
    delete pair_;
  }
  static const hdc::HdcClassifier& model_a() { return *model_a_; }
  static const hdc::HdcClassifier& model_b() { return *model_b_; }
  static const data::Dataset& inputs() { return pair_->test; }

 private:
  static hdc::HdcClassifier* model_a_;
  static hdc::HdcClassifier* model_b_;
  static data::TrainTestPair* pair_;
};

hdc::HdcClassifier* DifferentialTest::model_a_ = nullptr;
hdc::HdcClassifier* DifferentialTest::model_b_ = nullptr;
data::TrainTestPair* DifferentialTest::pair_ = nullptr;

TEST_F(DifferentialTest, ConstructionValidation) {
  const GaussNoiseMutation strategy;
  hdc::ModelConfig config;
  config.dim = 256;
  const hdc::HdcClassifier untrained(config, 28, 28, 10);
  EXPECT_THROW(CrossModelFuzzer(model_a(), untrained, strategy, FuzzConfig{}),
               std::logic_error);

  hdc::HdcClassifier small(config, 14, 14, 10);
  data::Dataset tiny;
  tiny.num_classes = 10;
  tiny.images.emplace_back(14, 14, 0);
  tiny.labels.push_back(0);
  small.fit(tiny);
  EXPECT_THROW(CrossModelFuzzer(model_a(), small, strategy, FuzzConfig{}),
               std::invalid_argument);
}

TEST_F(DifferentialTest, FindsDivergenceOrSkips) {
  const GaussNoiseMutation strategy;
  const CrossModelFuzzer fuzzer(model_a(), model_b(), strategy, FuzzConfig{});
  std::size_t findings = 0;
  std::size_t skips = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    util::Rng rng(i);
    const auto outcome = fuzzer.fuzz_one(inputs().images[i], rng);
    if (outcome.skipped) {
      ++skips;
      EXPECT_NE(outcome.label_a, outcome.label_b);
      continue;
    }
    if (outcome.success) {
      ++findings;
      EXPECT_NE(outcome.label_a, outcome.label_b);
      // Verify the divergence against the live models.
      EXPECT_EQ(model_a().predict(outcome.divergent), outcome.label_a);
      EXPECT_EQ(model_b().predict(outcome.divergent), outcome.label_b);
      EXPECT_TRUE(FuzzConfig{}.budget.accepts(outcome.perturbation));
    }
  }
  EXPECT_GT(findings + skips, 0u);
  EXPECT_GT(findings, 0u);
}

TEST_F(DifferentialTest, DeterministicGivenSeed) {
  const GaussNoiseMutation strategy;
  const CrossModelFuzzer fuzzer(model_a(), model_b(), strategy, FuzzConfig{});
  util::Rng a(7);
  util::Rng b(7);
  const auto oa = fuzzer.fuzz_one(inputs().images[0], a);
  const auto ob = fuzzer.fuzz_one(inputs().images[0], b);
  EXPECT_EQ(oa.success, ob.success);
  EXPECT_EQ(oa.iterations, ob.iterations);
  if (oa.success) {
    EXPECT_EQ(oa.divergent, ob.divergent);
  }
}

CampaignResult fake_campaign() {
  CampaignResult result;
  result.strategy_name = "gauss";
  result.total_seconds = 10.0;
  for (int i = 0; i < 4; ++i) {
    CampaignRecord r;
    r.image_index = static_cast<std::size_t>(i);
    r.true_label = i % 2;
    r.outcome.success = i != 3;
    r.outcome.reference_label = 1;
    r.outcome.adversarial_label = 2;
    r.outcome.iterations = static_cast<std::size_t>(i + 1);
    r.outcome.perturbation.l1 = 1.0 + i;
    r.outcome.perturbation.l2 = 0.1 * (i + 1);
    if (r.outcome.success) {
      r.outcome.adversarial = data::Image(28, 28, static_cast<std::uint8_t>(i));
    }
    result.records.push_back(std::move(r));
  }
  return result;
}

TEST(Report, StrategyTableContainsPaperMetrics) {
  const auto table = render_strategy_table({fake_campaign()});
  EXPECT_NE(table.find("Avg. Norm. Dist. L1"), std::string::npos);
  EXPECT_NE(table.find("Avg. #Iter."), std::string::npos);
  EXPECT_NE(table.find("Time Per-1K Gen. Img. (s)"), std::string::npos);
  EXPECT_NE(table.find("gauss"), std::string::npos);
}

TEST(Report, PerClassTableHasOneRowPerClass) {
  const auto table = render_per_class_table(fake_campaign(), 10);
  // Count data lines: 10 class rows.
  std::size_t rows = 0;
  std::istringstream is(table);
  std::string line;
  while (std::getline(is, line)) {
    rows += line.find("| 0 ") == 0 || (line.rfind("| ", 0) == 0 &&
                                       line.find(" | ") != std::string::npos &&
                                       line.find("Class") == std::string::npos);
  }
  EXPECT_GE(rows, 10u);
}

class ReportFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = unique_temp_path("hdtest_report");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ReportFileTest, RecordsCsvHasOneLinePerRecord) {
  const auto campaign = fake_campaign();
  const auto path = (dir_ / "records.csv").string();
  write_records_csv(campaign, path);
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1u + campaign.records.size());  // header + rows
}

TEST_F(ReportFileTest, SummaryCsvHasOneLinePerCampaign) {
  const auto path = (dir_ / "summary.csv").string();
  write_summary_csv({fake_campaign(), fake_campaign()}, path);
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 3u);
}

TEST_F(ReportFileTest, DumpSamplesWritesPgmTriples) {
  const auto campaign = fake_campaign();
  data::Dataset originals;
  originals.num_classes = 10;
  for (int i = 0; i < 4; ++i) {
    originals.images.emplace_back(28, 28, 200);
    originals.labels.push_back(0);
  }
  const auto summary =
      dump_samples(campaign, originals, dir_.string(), "fig", 2);
  EXPECT_NE(summary.find("sample 0"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "fig_0_original.pgm"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "fig_0_mask.pgm"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "fig_0_adversarial.pgm"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "fig_1_adversarial.pgm"));
  EXPECT_FALSE(std::filesystem::exists(dir_ / "fig_2_original.pgm"));  // cap 2
}

}  // namespace
}  // namespace hdtest::fuzz
