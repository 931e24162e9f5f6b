// The sharded campaign runtime's headline contract: run_campaign records
// (indices, outcomes, gave_up) are bit-identical for ANY worker count, in
// both campaign modes, including wrap-around and give-up paths — and a
// run_grid over many jobs reproduces each job's solo records exactly.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/runtime.hpp"
#include "hdc/classifier.hpp"

namespace hdtest::fuzz {
namespace {

/// Everything except the wall-clock fields must match bit-for-bit, by the
/// library's own predicate (shared with the bench gates). A failure names
/// the first diverging stream and field.
void expect_identical_records(const CampaignResult& expected,
                              const CampaignResult& actual) {
  if (const auto diff = first_divergence(expected, actual)) {
    ADD_FAILURE() << "records diverge: " << diff->describe();
  }
}

std::vector<std::size_t> worker_counts() {
  return {1, 2, 5,
          std::max<std::size_t>(1, std::thread::hardware_concurrency())};
}

/// Shared small trained model (one fit for the whole suite).
class ShardDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hdc::ModelConfig config;
    config.dim = 1024;
    config.seed = 9;
    pair_ = new data::TrainTestPair(data::make_digit_train_test(20, 4, 123));
    model_ = new hdc::HdcClassifier(config, 28, 28, 10);
    model_->fit(pair_->train);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete pair_;
    model_ = nullptr;
    pair_ = nullptr;
  }
  static const hdc::HdcClassifier& model() { return *model_; }
  static const data::Dataset& inputs() { return pair_->test; }

 private:
  static hdc::HdcClassifier* model_;
  static data::TrainTestPair* pair_;
};

hdc::HdcClassifier* ShardDeterminismTest::model_ = nullptr;
data::TrainTestPair* ShardDeterminismTest::pair_ = nullptr;

TEST_F(ShardDeterminismTest, TargetModeIsBitIdenticalAcrossWorkerCounts) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.target_adversarials = 20;
  config.seed = 777;
  config.workers = 1;
  const auto reference = run_campaign(fuzzer, inputs(), config);
  ASSERT_GE(reference.successes(), 20u);
  ASSERT_FALSE(reference.gave_up);
  for (const auto workers : worker_counts()) {
    config.workers = workers;
    expect_identical_records(reference, run_campaign(fuzzer, inputs(), config));
  }
}

TEST_F(ShardDeterminismTest, FirstDivergenceNamesTheStreamAndField) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.max_images = 6;
  config.seed = 4;
  const auto reference = run_campaign(fuzzer, inputs(), config);
  ASSERT_EQ(reference.records.size(), 6u);
  EXPECT_FALSE(first_divergence(reference, reference));
  EXPECT_TRUE(identical_records(reference, reference));

  // One field of one record changed: the report names exactly that stream
  // and field with both values, and the predicate agrees.
  auto doctored = reference;
  auto& outcome = doctored.records[4].outcome;
  outcome.iterations += 3;
  const auto diff = first_divergence(reference, doctored);
  ASSERT_TRUE(diff);
  EXPECT_EQ(diff->stream, 4u);
  EXPECT_EQ(diff->field, "iterations");
  EXPECT_EQ(diff->expected,
            std::to_string(reference.records[4].outcome.iterations));
  EXPECT_EQ(diff->actual, std::to_string(outcome.iterations));
  EXPECT_EQ(diff->describe(), "stream 4, field iterations: expected " +
                                  diff->expected + ", actual " + diff->actual);
  EXPECT_FALSE(identical_records(reference, doctored));

  // Result-level mismatches: a dropped record, then gave_up alone.
  auto short_result = reference;
  short_result.records.pop_back();
  const auto count_diff = first_divergence(reference, short_result);
  ASSERT_TRUE(count_diff);
  EXPECT_EQ(count_diff->field, "record_count");
  EXPECT_EQ(count_diff->stream, 5u);
  auto gave_up = reference;
  gave_up.gave_up = !reference.gave_up;
  const auto gave_up_diff = first_divergence(reference, gave_up);
  ASSERT_TRUE(gave_up_diff);
  EXPECT_EQ(gave_up_diff->field, "gave_up");
}

TEST_F(ShardDeterminismTest, WrapAroundPathIsBitIdentical) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  // 5 inputs, target 12: gauss flips nearly everything, so the campaign
  // must wrap the input set at least twice with fresh mutation streams.
  const auto small = inputs().take(5);
  CampaignConfig config;
  config.target_adversarials = 12;
  config.seed = 31;
  config.workers = 1;
  const auto reference = run_campaign(fuzzer, small, config);
  ASSERT_FALSE(reference.gave_up);
  ASSERT_GT(reference.records.size(), 10u);  // wrapped at least twice
  // Wrap-around revisits reuse input indices with distinct streams.
  EXPECT_EQ(reference.records[5].image_index, reference.records[0].image_index);
  for (const auto workers : worker_counts()) {
    config.workers = workers;
    expect_identical_records(reference, run_campaign(fuzzer, small, config));
  }
}

TEST_F(ShardDeterminismTest, SweepModeIsBitIdenticalAcrossWorkerCounts) {
  const RandNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.max_images = 14;
  config.seed = 55;
  config.workers = 1;
  const auto reference = run_campaign(fuzzer, inputs(), config);
  ASSERT_EQ(reference.records.size(), 14u);
  for (const auto workers : worker_counts()) {
    config.workers = workers;
    expect_identical_records(reference, run_campaign(fuzzer, inputs(), config));
  }
}

TEST_F(ShardDeterminismTest, GiveUpPathIsBitIdentical) {
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz;
  fuzz.iter_times = 1;
  fuzz.budget.max_l2 = 1e-12;  // nothing can succeed
  const Fuzzer fuzzer(model(), strategy, fuzz);
  CampaignConfig config;
  config.fuzz = fuzz;
  config.target_adversarials = 4;
  config.max_streams = 11;
  config.workers = 1;
  const auto reference = run_campaign(fuzzer, inputs().take(3), config);
  ASSERT_TRUE(reference.gave_up);
  ASSERT_EQ(reference.records.size(), 11u);
  for (const auto workers : worker_counts()) {
    config.workers = workers;
    expect_identical_records(reference,
                             run_campaign(fuzzer, inputs().take(3), config));
  }
}

TEST_F(ShardDeterminismTest, ShardBlockSizeNeverChangesResults) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  CampaignConfig config;
  config.target_adversarials = 10;
  config.seed = 99;
  config.workers = 1;
  const auto reference = run_campaign(fuzzer, inputs(), config);
  for (const std::size_t block : {1, 3, 16, 64}) {
    config.shard_block = block;
    config.workers = 3;
    expect_identical_records(reference, run_campaign(fuzzer, inputs(), config));
  }
}

TEST_F(ShardDeterminismTest, GridReproducesSoloRunsExactly) {
  const GaussNoiseMutation gauss;
  const RandNoiseMutation rand;
  const Fuzzer gauss_fuzzer(model(), gauss, FuzzConfig{});
  const Fuzzer rand_fuzzer(model(), rand, FuzzConfig{});

  shard::CampaignJob target_job;
  target_job.fuzzer = &gauss_fuzzer;
  target_job.inputs = &inputs();
  target_job.config.target_adversarials = 8;
  target_job.config.seed = 7;

  shard::CampaignJob sweep_job;
  sweep_job.fuzzer = &rand_fuzzer;
  sweep_job.inputs = &inputs();
  sweep_job.config.max_images = 10;
  sweep_job.config.seed = 7;

  const shard::CampaignJob jobs[] = {target_job, sweep_job};
  shard::CampaignRuntime runtime(/*workers=*/3);
  const auto grid = runtime.run_grid(jobs);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].strategy_name, "gauss");
  EXPECT_EQ(grid[1].strategy_name, "rand");

  expect_identical_records(
      grid[0], run_campaign(gauss_fuzzer, inputs(), target_job.config));
  expect_identical_records(
      grid[1], run_campaign(rand_fuzzer, inputs(), sweep_job.config));
}

TEST_F(ShardDeterminismTest, CampaignGridMatchesSoloRuns) {
  CampaignConfig cell;
  cell.max_images = 8;
  cell.seed = 3;
  shard::CampaignGrid grid(model());
  grid.add("gauss", inputs(), cell);
  grid.add("shift", inputs(), cell);  // unlimited default budget
  shard::CampaignRuntime runtime(2);
  const auto results = runtime.run_grid(grid.jobs());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].strategy_name, "gauss");
  EXPECT_EQ(results[1].strategy_name, "shift");
  for (std::size_t k = 0; k < results.size(); ++k) {
    const auto& job = grid.jobs()[k];
    expect_identical_records(run_campaign(*job.fuzzer, inputs(), job.config),
                             results[k]);
  }
}

TEST_F(ShardDeterminismTest, RuntimeRejectsMalformedJobs) {
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model(), strategy, FuzzConfig{});
  shard::CampaignRuntime runtime(2);
  shard::CampaignJob job;  // null fuzzer/inputs
  EXPECT_THROW((void)runtime.run_grid({&job, 1}), std::invalid_argument);
  shard::CampaignGrid grid(model());
  EXPECT_THROW(grid.add("no_such_strategy", inputs(), CampaignConfig{}),
               std::invalid_argument);
  job.fuzzer = &fuzzer;
  data::Dataset empty;
  job.inputs = &empty;
  EXPECT_THROW((void)runtime.run_grid({&job, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace hdtest::fuzz
