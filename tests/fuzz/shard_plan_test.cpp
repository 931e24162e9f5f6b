// Unit tests for the shard machinery: ShardPlanner (fixed slices + stream
// seeds), StopToken (monotone cut bound), ProgressLedger (canonical-order
// merge + stopping-rule replay), and SeedBank (build-once context cache).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/ledger.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "fuzz/shard/stop_token.hpp"
#include "hdc/classifier.hpp"
#include "util/rng.hpp"

namespace hdtest::fuzz::shard {
namespace {

TEST(ShardPlanner, ValidatesArguments) {
  EXPECT_THROW(ShardPlanner(ShardPlanner::Mode::kSweep, 0, 1, 1, 1),
               std::invalid_argument);
  EXPECT_THROW(ShardPlanner(ShardPlanner::Mode::kSweep, 4, 1, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(ShardPlanner(ShardPlanner::Mode::kSweep, 4, 1, 2, 0),
               std::invalid_argument);
  // A sweep cannot cover more streams than inputs.
  EXPECT_THROW(ShardPlanner(ShardPlanner::Mode::kSweep, 4, 1, 5, 1),
               std::invalid_argument);
  // Target mode wraps, so it can.
  EXPECT_NO_THROW(ShardPlanner(ShardPlanner::Mode::kTargetCount, 4, 1, 5, 1));
}

TEST(ShardPlanner, SlicesPartitionTheStreamSpace) {
  const ShardPlanner planner(ShardPlanner::Mode::kTargetCount, 7, 42, 23, 5);
  EXPECT_EQ(planner.num_blocks(), 5u);  // ceil(23/5)
  std::vector<bool> covered(23, false);
  for (std::size_t b = 0; b < planner.num_blocks(); ++b) {
    const auto slice = planner.slice(b);
    EXPECT_EQ(slice.first, b * 5);
    for (std::size_t s = slice.first; s < slice.end(); ++s) {
      ASSERT_LT(s, covered.size());
      EXPECT_FALSE(covered[s]);
      covered[s] = true;
    }
  }
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool c) { return c; }));
  // Blocks past the limit are empty.
  EXPECT_TRUE(planner.slice(5).empty());
}

TEST(ShardPlanner, SliceClipsToTheBound) {
  const ShardPlanner planner(ShardPlanner::Mode::kTargetCount, 7, 42, 100, 8);
  const auto clipped = planner.slice(1, /*bound=*/11);
  EXPECT_EQ(clipped.first, 8u);
  EXPECT_EQ(clipped.count, 3u);  // streams 8, 9, 10
  EXPECT_TRUE(planner.slice(2, 11).empty());
  // The limit still applies when the bound is looser.
  const auto tail = planner.slice(12, /*bound=*/1000);
  EXPECT_EQ(tail.first, 96u);
  EXPECT_EQ(tail.count, 4u);
}

TEST(ShardPlanner, StreamMappingMatchesTheSequentialDriver) {
  const std::uint64_t master = 0xfeedULL;
  const ShardPlanner planner(ShardPlanner::Mode::kTargetCount, 5, master, 40,
                             4);
  util::Rng master_rng(master);
  for (std::size_t s = 0; s < 40; ++s) {
    EXPECT_EQ(planner.input_of(s), s % 5);
    // The old sequential loop drew master.child(stream); planner seeds must
    // regenerate exactly that stream.
    util::Rng expected = master_rng.child(s);
    util::Rng actual(planner.stream_seed(s));
    EXPECT_EQ(expected.next_u64(), actual.next_u64());
    EXPECT_EQ(expected.next_u64(), actual.next_u64());
  }
}

TEST(ShardPlanner, PlanCampaignSelectsModeLimitAndBlock) {
  CampaignConfig sweep;
  sweep.max_images = 12;
  const auto sweep_plan = plan_campaign(sweep, 40);
  EXPECT_EQ(sweep_plan.mode(), ShardPlanner::Mode::kSweep);
  EXPECT_EQ(sweep_plan.stream_limit(), 12u);
  EXPECT_EQ(sweep_plan.block_streams(), 1u);  // auto

  CampaignConfig target;
  target.target_adversarials = 3;
  const auto legacy_plan = plan_campaign(target, 10);
  EXPECT_EQ(legacy_plan.mode(), ShardPlanner::Mode::kTargetCount);
  // Legacy valve formula, +1 for the historical off-by-one.
  EXPECT_EQ(legacy_plan.stream_limit(), 3u * 1000 + 10u * 100 + 1);
  EXPECT_EQ(legacy_plan.block_streams(), 4u);  // auto

  target.max_streams = 77;
  target.shard_block = 16;
  const auto knob_plan = plan_campaign(target, 10);
  EXPECT_EQ(knob_plan.stream_limit(), 77u);
  EXPECT_EQ(knob_plan.block_streams(), 16u);
}

TEST(StopToken, BoundOnlyShrinks) {
  StopToken token(100);
  EXPECT_TRUE(token.admits(99));
  EXPECT_FALSE(token.admits(100));
  token.cut_to(40);
  EXPECT_EQ(token.bound(), 40u);
  token.cut_to(60);  // raising is a no-op
  EXPECT_EQ(token.bound(), 40u);
  token.cut_to(10);
  EXPECT_FALSE(token.admits(10));
  EXPECT_TRUE(token.admits(9));
}

/// Builds a one-record-per-stream vector with the given success pattern.
std::vector<CampaignRecord> make_records(std::size_t first,
                                         const std::vector<bool>& successes) {
  std::vector<CampaignRecord> records;
  records.reserve(successes.size());
  for (std::size_t k = 0; k < successes.size(); ++k) {
    CampaignRecord record;
    record.image_index = first + k;  // tag with the stream for order checks
    record.outcome.success = successes[k];
    records.push_back(record);
  }
  return records;
}

/// Reference implementation: the sequential stopping rule over an outcome
/// pattern. Returns {cut, gave_up}.
std::pair<std::size_t, bool> sequential_rule(const std::vector<bool>& outcomes,
                                             std::size_t target,
                                             std::size_t limit) {
  std::size_t successes = 0;
  for (std::size_t s = 0; s < limit; ++s) {
    if (target != 0 && successes >= target) return {s, false};
    successes += outcomes[s] ? 1 : 0;
  }
  return {limit, target != 0 && successes < target};
}

TEST(ProgressLedger, OutOfOrderCommitsMergeInStreamOrder) {
  StopToken token(12);
  ProgressLedger ledger(/*target=*/0, /*stream_limit=*/12, &token);
  ledger.commit(8, make_records(8, {false, true, false, false}));
  EXPECT_FALSE(ledger.finished());
  ledger.commit(4, make_records(4, {true, false, false, true}));
  EXPECT_FALSE(ledger.finished());
  ledger.commit(0, make_records(0, {false, true, true, false}));
  ASSERT_TRUE(ledger.finished());
  EXPECT_EQ(ledger.cut(), 12u);
  EXPECT_FALSE(ledger.gave_up());
  const auto records = ledger.take_records();
  ASSERT_EQ(records.size(), 12u);
  for (std::size_t s = 0; s < records.size(); ++s) {
    EXPECT_EQ(records[s].image_index, s);
  }
}

TEST(ProgressLedger, ReplaysTheSequentialStoppingRule) {
  // Random success patterns, committed in a scrambled block order, must
  // reproduce the sequential rule's exact cut and give-up flag.
  util::Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    const std::size_t limit = 1 + rng.uniform_u64(40);
    const std::size_t target = rng.uniform_u64(6);  // 0 = sweep
    const std::size_t block = 1 + rng.uniform_u64(7);
    std::vector<bool> outcomes(limit);
    for (auto&& o : outcomes) o = rng.bernoulli(0.3);

    StopToken token(limit);
    ProgressLedger ledger(target, limit, &token);
    const std::size_t num_blocks = (limit + block - 1) / block;
    std::vector<std::size_t> order(num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) order[b] = b;
    rng.shuffle(order);
    for (const auto b : order) {
      const std::size_t first = b * block;
      const std::size_t count = std::min(block, limit - first);
      ledger.commit(first, make_records(first,
                                        {outcomes.begin() + first,
                                         outcomes.begin() + first + count}));
    }
    const auto [expected_cut, expected_gave_up] =
        sequential_rule(outcomes, target, limit);
    ASSERT_TRUE(ledger.finished());
    EXPECT_EQ(ledger.cut(), expected_cut);
    EXPECT_EQ(ledger.gave_up(), expected_gave_up);
    EXPECT_EQ(token.bound(), expected_cut);
    const auto records = ledger.take_records();
    ASSERT_EQ(records.size(), expected_cut);
    for (std::size_t s = 0; s < records.size(); ++s) {
      EXPECT_EQ(records[s].image_index, s);
      EXPECT_EQ(records[s].outcome.success, static_cast<bool>(outcomes[s]));
    }
  }
}

TEST(ProgressLedger, DuplicateAndStaleCommitsReplayTheSequentialRule) {
  // Fleet federation re-issues expired leases, so the same block can be
  // committed several times (by different workers, in any order, possibly
  // after the original committer already landed it). Scrambled orders with
  // duplicated and stale re-deliveries must still replay to the exact
  // sequential cut: block content is deterministic, and the ledger merges
  // each stream exactly once.
  util::Rng rng(777);
  for (int round = 0; round < 50; ++round) {
    const std::size_t limit = 1 + rng.uniform_u64(40);
    const std::size_t target = rng.uniform_u64(6);  // 0 = sweep
    const std::size_t block = 1 + rng.uniform_u64(7);
    std::vector<bool> outcomes(limit);
    for (auto&& o : outcomes) o = rng.bernoulli(0.3);

    StopToken token(limit);
    ProgressLedger ledger(target, limit, &token);
    const std::size_t num_blocks = (limit + block - 1) / block;
    // Commit schedule: every block once, plus a random batch of repeats —
    // the duplicate (re-leased) and stale (expired-lease landing late)
    // cases are the same thing from the ledger's point of view.
    std::vector<std::size_t> schedule;
    for (std::size_t b = 0; b < num_blocks; ++b) schedule.push_back(b);
    const std::size_t repeats = rng.uniform_u64(2 * num_blocks + 1);
    for (std::size_t r = 0; r < repeats; ++r) {
      schedule.push_back(rng.uniform_u64(num_blocks));
    }
    rng.shuffle(schedule);

    for (const auto b : schedule) {
      const std::size_t first = b * block;
      const std::size_t count = std::min(block, limit - first);
      ledger.commit(first, make_records(first,
                                        {outcomes.begin() + first,
                                         outcomes.begin() + first + count}));
    }
    const auto [expected_cut, expected_gave_up] =
        sequential_rule(outcomes, target, limit);
    ASSERT_TRUE(ledger.finished());
    EXPECT_EQ(ledger.cut(), expected_cut);
    EXPECT_EQ(ledger.gave_up(), expected_gave_up);
    const auto records = ledger.take_records();
    ASSERT_EQ(records.size(), expected_cut);
    for (std::size_t s = 0; s < records.size(); ++s) {
      EXPECT_EQ(records[s].image_index, s);  // merged exactly once, in order
      EXPECT_EQ(records[s].outcome.success, static_cast<bool>(outcomes[s]));
    }
  }
}

TEST(ProgressLedger, AbandonDecidesAtTheReplayFrontier) {
  StopToken token(20);
  ProgressLedger ledger(/*target=*/5, /*stream_limit=*/20, &token);
  ledger.commit(0, make_records(0, {true, false, true, false}));
  EXPECT_FALSE(ledger.finished());
  ledger.abandon();
  ASSERT_TRUE(ledger.finished());
  EXPECT_EQ(ledger.cut(), 4u);
  EXPECT_TRUE(ledger.gave_up());
  EXPECT_EQ(ledger.take_records().size(), 4u);
  ledger.abandon();  // idempotent
  EXPECT_TRUE(ledger.finished());
}

TEST(ProgressLedger, DiscardsSpeculativeOvershoot) {
  StopToken token(100);
  ProgressLedger ledger(/*target=*/2, /*stream_limit=*/100, &token);
  ledger.commit(0, make_records(0, {true, true, false, false}));
  ASSERT_TRUE(ledger.finished());
  EXPECT_EQ(ledger.cut(), 2u);  // stops before stream 2
  EXPECT_EQ(token.bound(), 2u);
  // A racing shard's late block is dropped, not appended.
  ledger.commit(4, make_records(4, {true, true}));
  EXPECT_EQ(ledger.take_records().size(), 2u);
}

TEST(ProgressLedger, UsefulBoundIsTheLimitInSweepModeAndTheCutOnceDecided) {
  ProgressLedger sweep(/*target=*/0, /*stream_limit=*/12, nullptr);
  EXPECT_EQ(sweep.useful_bound(), 12u);
  sweep.commit(4, make_records(4, {true, true, true, true}));
  EXPECT_EQ(sweep.useful_bound(), 12u);  // sweeps keep every stream

  ProgressLedger targeted(/*target=*/2, /*stream_limit=*/100, nullptr);
  EXPECT_EQ(targeted.useful_bound(), 100u);  // nothing known yet
  targeted.commit(0, make_records(0, {false, true, false, true, true}));
  ASSERT_TRUE(targeted.finished());
  EXPECT_EQ(targeted.useful_bound(), targeted.cut());
  EXPECT_EQ(targeted.useful_bound(), 4u);
}

TEST(ProgressLedger, UsefulBoundCountsPendingSuccessesPastAGap) {
  ProgressLedger ledger(/*target=*/3, /*stream_limit=*/100, nullptr);
  ledger.commit(0, make_records(0, {true, false}));  // merged: 1 success
  EXPECT_EQ(ledger.useful_bound(), 100u);
  // Streams 2..3 are a gap; one success past it is still one short.
  ledger.commit(4, make_records(4, {false, true}));
  EXPECT_FALSE(ledger.finished());
  EXPECT_EQ(ledger.useful_bound(), 100u);
  // The third known success (stream 9) bounds the cut, gap or not.
  ledger.commit(8, make_records(8, {false, true, true}));
  EXPECT_EQ(ledger.useful_bound(), 10u);
  // An earlier pending success tightens it.
  ledger.commit(6, make_records(6, {true, false}));
  EXPECT_EQ(ledger.useful_bound(), 7u);
  ledger.commit(2, make_records(2, {false, false}));
  ASSERT_TRUE(ledger.finished());
  EXPECT_EQ(ledger.cut(), 7u);
}

TEST(ProgressLedger, UsefulBoundNeverFallsBelowTheSequentialCut) {
  // The bound is what the fleet coordinator refuses to lease past, so it
  // must hold at every point of any commit order: no kept stream lies at
  // or past it, and it only ever tightens.
  util::Rng rng(4242);
  for (int round = 0; round < 100; ++round) {
    const std::size_t limit = 1 + rng.uniform_u64(60);
    const std::size_t target = rng.uniform_u64(8);  // 0 = sweep
    const std::size_t block = 1 + rng.uniform_u64(6);
    std::vector<bool> outcomes(limit);
    for (auto&& o : outcomes) o = rng.bernoulli(0.3);
    const std::size_t expected_cut =
        sequential_rule(outcomes, target, limit).first;

    ProgressLedger ledger(target, limit, nullptr);
    const std::size_t num_blocks = (limit + block - 1) / block;
    std::vector<std::size_t> order(num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) order[b] = b;
    rng.shuffle(order);
    std::size_t previous = ledger.useful_bound();
    for (const auto b : order) {
      const std::size_t first = b * block;
      const std::size_t count = std::min(block, limit - first);
      ledger.commit(first, make_records(first,
                                        {outcomes.begin() + first,
                                         outcomes.begin() + first + count}));
      const std::size_t bound = ledger.useful_bound();
      ASSERT_GE(bound, expected_cut) << "round " << round;
      ASSERT_LE(bound, previous) << "round " << round;
      previous = bound;
    }
    ASSERT_TRUE(ledger.finished());
    EXPECT_EQ(ledger.useful_bound(), expected_cut);
  }
}

TEST(ProgressLedger, AccessorsThrowBeforeFinish) {
  ProgressLedger ledger(1, 10, nullptr);
  EXPECT_THROW((void)ledger.cut(), std::logic_error);
  EXPECT_THROW((void)ledger.gave_up(), std::logic_error);
  EXPECT_THROW((void)ledger.take_records(), std::logic_error);
}

TEST(SeedBank, BuildsOnceAndHonorsTheRetentionCap) {
  hdc::ModelConfig config;
  config.dim = 256;
  config.seed = 5;
  const auto pair = data::make_digit_train_test(10, 1, 31);
  hdc::HdcClassifier model(config, 28, 28, 10);
  model.fit(pair.train);
  const GaussNoiseMutation strategy;
  const Fuzzer fuzzer(model, strategy, FuzzConfig{});

  SeedBank bank(fuzzer, pair.test, /*max_retained=*/4);
  EXPECT_EQ(bank.capacity(), 4u);
  const auto* first = bank.acquire(0);
  ASSERT_NE(first, nullptr);
  // Same slot, same pointer (no rebuild), and the context matches a fresh
  // prepare_seed.
  EXPECT_EQ(bank.acquire(0), first);
  const auto fresh = fuzzer.prepare_seed(pair.test.images[0]);
  EXPECT_EQ(first->reference_label, fresh.reference_label);
  EXPECT_EQ(first->reference, fresh.reference);
  // Inputs past the cap always encode inline.
  EXPECT_EQ(bank.acquire(4), nullptr);
  EXPECT_EQ(bank.acquire(9), nullptr);
}

}  // namespace
}  // namespace hdtest::fuzz::shard
