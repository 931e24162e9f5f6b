// Federation determinism under fault injection: the tentpole property.
//
// A SimFleet run — any worker count, any seeded schedule of drops,
// duplicates, corruption, truncation, delays, and kill/restarts — must
// merge exactly the records a solo sequential execution produces. The
// matrix test sweeps 200 randomized schedules across both stopping modes;
// further tests pin the individual fault dispositions (corruption retried
// never merged, duplicates acked without merging, shape mismatches
// rejected and re-leased) at the CoordinatorCore level, and a real-fuzzer
// test closes the loop against run_campaign(workers=1) itself. A
// bounded-work sweep over wide stream spaces pins the other half of the
// contract: the fleet executes at most a few blocks per worker past the cut.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "data/image.hpp"
#include "data/synthetic_digits.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/coordinator.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/sim.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/ledger.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "fuzz/shard/stop_token.hpp"
#include "hdc/classifier.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace hdtest::fuzz::fleet {
namespace {

/// Cheap deterministic executor: every field of every record is a pure
/// function of the stream seed, exactly the property the real
/// FuzzSliceExecutor has, at none of the cost.
class SyntheticExecutor final : public SliceExecutor {
 public:
  explicit SyntheticExecutor(const shard::ShardPlanner& planner) noexcept
      : planner_(&planner) {}

  [[nodiscard]] std::vector<CampaignRecord> execute(
      const shard::StreamSlice& slice) override {
    std::vector<CampaignRecord> records;
    records.reserve(slice.count);
    for (std::size_t s = slice.first; s < slice.end(); ++s) {
      util::Rng rng(planner_->stream_seed(s));
      CampaignRecord record;
      record.image_index = planner_->input_of(s);
      record.true_label = static_cast<int>(record.image_index % 10);
      record.outcome.success = rng.bernoulli(0.35);
      record.outcome.reference_label = record.image_index % 10;
      record.outcome.iterations = 1 + rng.uniform_u64(30);
      record.outcome.encodes = 10 * record.outcome.iterations;
      record.outcome.discarded = rng.uniform_u64(5);
      if (record.outcome.success) {
        record.outcome.adversarial_label = rng.uniform_u64(10);
        record.outcome.perturbation.l1 = rng.uniform01();
        record.outcome.perturbation.l2 = rng.uniform01();
        record.outcome.perturbation.linf = rng.uniform01();
        record.outcome.perturbation.pixels_changed = 1 + rng.uniform_u64(16);
        data::Image image(4, 4);
        for (auto& pixel : image.pixels()) {
          pixel = static_cast<std::uint8_t>(rng.uniform_u64(256));
        }
        record.outcome.adversarial = std::move(image);
      }
      records.push_back(std::move(record));
    }
    return records;
  }

 private:
  const shard::ShardPlanner* planner_;
};

/// Forwards to another executor and counts the streams it runs.
class CountingExecutor final : public SliceExecutor {
 public:
  explicit CountingExecutor(SliceExecutor& inner) noexcept : inner_(&inner) {}

  [[nodiscard]] std::vector<CampaignRecord> execute(
      const shard::StreamSlice& slice) override {
    streams += slice.count;
    return inner_->execute(slice);
  }

  std::size_t streams = 0;

 private:
  SliceExecutor* inner_;
};

/// The reference a federated run must match: execute every block in plan
/// order on one "worker" and replay the stopping rule through the same
/// ledger the solo runtime uses.
CampaignResult solo_reference(const shard::ShardPlanner& planner,
                              std::size_t target, SliceExecutor& executor) {
  shard::StopToken token(planner.stream_limit());
  shard::ProgressLedger ledger(target, planner.stream_limit(), &token);
  for (std::size_t b = 0; b < planner.num_blocks() && !ledger.finished();
       ++b) {
    const auto slice = planner.slice(b);
    ledger.commit(slice.first, executor.execute(slice));
  }
  CampaignResult result;
  result.gave_up = ledger.gave_up();
  result.records = ledger.take_records();
  return result;
}

TEST(FleetSim, TwoHundredFaultSchedulesMergeBitIdentical) {
  // ISSUE acceptance: >= 200 randomized fault schedules, both stopping
  // modes, varying worker counts — every one must merge records
  // bit-identical to the solo run. Aggregate counters then prove the
  // matrix actually exercised the fault paths rather than passing vacuously.
  std::size_t faults = 0;
  std::size_t corrupt = 0;
  std::size_t duplicates = 0;
  std::size_t reissued = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const bool target_mode = (seed % 2) == 0;
    const std::size_t num_inputs = 5 + seed % 7;
    const std::size_t limit = target_mode ? 24 + seed % 17 : num_inputs;
    const std::size_t block = 1 + seed % 5;
    const std::size_t target = target_mode ? 2 + seed % 4 : 0;
    const shard::ShardPlanner planner(
        target_mode ? shard::ShardPlanner::Mode::kTargetCount
                    : shard::ShardPlanner::Mode::kSweep,
        num_inputs, 0x5eedULL + seed, limit, block);
    SyntheticExecutor executor(planner);
    const auto expected = solo_reference(planner, target, executor);

    FaultPlan plan;
    plan.seed = seed * 7919 + 1;
    plan.drop_pct = static_cast<unsigned>(seed % 4) * 8;
    plan.duplicate_pct = static_cast<unsigned>(seed % 3) * 10;
    plan.corrupt_pct = static_cast<unsigned>(seed % 5) * 5;
    plan.truncate_pct = static_cast<unsigned>(seed % 2) * 7;
    plan.delay_pct = 20;
    plan.max_faults = 48;
    SimFleet fleet(planner, target, /*workers=*/1 + seed % 4, executor, plan);
    const auto merged = fleet.run();
    ASSERT_TRUE(identical_records(merged, expected)) << "seed " << seed;
    EXPECT_EQ(merged.gave_up, expected.gave_up) << "seed " << seed;

    faults += fleet.faults_injected();
    corrupt += fleet.stats().corrupt_frames;
    duplicates += fleet.stats().duplicate_commits;
    reissued += fleet.stats().leases_reissued;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(corrupt, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(reissued, 0u);
}

TEST(FleetSim, WorkPastTheCutIsBoundedPerWorker) {
  // Wide stream spaces (limit 2000, far past any cut here), so a fleet
  // that keeps fuzzing past the stopping point shows up as executed
  // streams. Each worker may overshoot by a few blocks (the one it is
  // running when the cut is decided, plus slices leased before the last
  // gap filled), and each injected fault may cost one more block; the
  // factor 3 is measured headroom over the worst schedule, not a guess.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng draw(0xb0c4ULL + seed);
    const std::size_t workers = 1 + draw.uniform_u64(4);
    const std::size_t block = 1 + draw.uniform_u64(5);
    const std::size_t target = 2 + draw.uniform_u64(20);
    const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kTargetCount,
                                      5 + seed % 7, 0x5eedULL + seed,
                                      /*stream_limit=*/2000, block);
    SyntheticExecutor synthetic(planner);
    const auto expected = solo_reference(planner, target, synthetic);

    FaultPlan plan;
    plan.seed = seed * 7919 + 3;
    if (seed % 2 == 1) {  // the matrix test's per-seed fault mix
      plan.drop_pct = static_cast<unsigned>(seed % 4) * 8;
      plan.duplicate_pct = static_cast<unsigned>(seed % 3) * 10;
      plan.corrupt_pct = static_cast<unsigned>(seed % 5) * 5;
      plan.truncate_pct = static_cast<unsigned>(seed % 2) * 7;
      plan.delay_pct = 20;
      plan.max_faults = 48;
    }
    CountingExecutor counted(synthetic);
    SimFleet fleet(planner, target, workers, counted, plan);
    const auto merged = fleet.run();
    ASSERT_TRUE(identical_records(merged, expected)) << "seed " << seed;
    const std::size_t cut = merged.records.size();
    EXPECT_LE(counted.streams,
              cut + block * (3 * workers + fleet.faults_injected()))
        << "seed " << seed << ": cut " << cut << ", " << workers
        << " workers, block " << block << ", "
        << fleet.faults_injected() << " faults, "
        << fleet.stats().duplicate_commits << " duplicate commits";
    EXPECT_LE(fleet.stats().streams_past_cut, counted.streams - cut)
        << "seed " << seed;
  }
}

TEST(FleetSim, KillAndRestartSchedulesMergeBitIdentical) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kTargetCount,
                                    6, 0xdeadULL, 30, 3);
  SyntheticExecutor executor(planner);
  const auto expected = solo_reference(planner, /*target=*/4, executor);

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    FaultPlan plan;
    plan.seed = 0xbeefULL + seed;
    plan.drop_pct = 10;
    plan.delay_pct = 25;
    plan.max_faults = 32;
    // Worker 0 dies mid-campaign and comes back as a fresh incarnation;
    // worker 2 dies for good. Workers 1 (and the restarted 0) must pick
    // up the orphaned leases.
    plan.kills.push_back({/*worker=*/0, /*at=*/50 + seed * 17,
                          /*restart=*/true, /*restart_after=*/120});
    plan.kills.push_back({/*worker=*/2, /*at=*/200 + seed * 31,
                          /*restart=*/false, /*restart_after=*/0});
    SimFleet fleet(planner, /*target=*/4, /*workers=*/3, executor, plan);
    const auto merged = fleet.run();
    ASSERT_TRUE(identical_records(merged, expected)) << "seed " << seed;
  }
}

TEST(FleetSim, HeavyCorruptionIsRetriedAndNeverMerged) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 12,
                                    0xc0ffeeULL, 12, 2);
  SyntheticExecutor executor(planner);
  const auto expected = solo_reference(planner, /*target=*/0, executor);

  std::size_t corrupt_seen = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    FaultPlan plan;
    plan.seed = 0xbadULL * (seed + 1);
    plan.corrupt_pct = 60;
    plan.truncate_pct = 20;
    plan.max_faults = 24;
    SimFleet fleet(planner, /*target=*/0, /*workers=*/2, executor, plan);
    const auto merged = fleet.run();
    ASSERT_TRUE(identical_records(merged, expected)) << "seed " << seed;
    corrupt_seen += fleet.stats().corrupt_frames;
  }
  // The schedules above corrupt more than half of all copies until the
  // budget runs out; at least one commit-carrying frame must have been
  // mangled — and per the identical_records assertions, none was merged.
  EXPECT_GT(corrupt_seen, 0u);
}

TEST(FleetSim, MetricsOnAndOffMergeBitIdenticalUnderFaults) {
  // The observability contract: enabling telemetry changes what the fleet
  // REPORTS, never what it COMPUTES. Heartbeat frames ride the same faulty
  // channel as everything else — each one consumes fault-RNG draws, so
  // flipping metrics on reshapes the entire downstream fault schedule —
  // and the merged records still must not move.
  const bool was_enabled = obs::enabled();
  const auto heartbeat_count = [] {
    return obs::Registry::global().snapshot().counter_value(
        "fleet_heartbeats_total");
  };
  const auto beats_before = heartbeat_count();
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const std::size_t target = 2 + seed % 3;
    const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kTargetCount,
                                      6 + seed % 5, 0xfeedULL + seed, 30,
                                      2 + seed % 3);
    SyntheticExecutor executor(planner);
    const auto expected = solo_reference(planner, target, executor);

    FaultPlan plan;
    plan.seed = 0x0b5ULL * (seed + 1);
    plan.drop_pct = 12;
    plan.duplicate_pct = 10;
    plan.corrupt_pct = 10;
    plan.delay_pct = 20;
    plan.max_faults = 40;
    plan.heartbeat_every = 3 + seed % 5;

    obs::set_enabled(false);
    SimFleet quiet_fleet(planner, target, /*workers=*/1 + seed % 3, executor,
                         plan);
    const auto quiet = quiet_fleet.run();
    ASSERT_TRUE(identical_records(quiet, expected)) << "seed " << seed;

    obs::set_enabled(true);
    SimFleet loud_fleet(planner, target, /*workers=*/1 + seed % 3, executor,
                        plan);
    const auto loud = loud_fleet.run();
    ASSERT_TRUE(identical_records(loud, expected)) << "seed " << seed;
    EXPECT_EQ(loud.gave_up, quiet.gave_up) << "seed " << seed;
  }
  obs::set_enabled(was_enabled);
  // Vacuity check: the metrics-on runs really did deliver heartbeats.
  EXPECT_GT(heartbeat_count(), beats_before);
}

TEST(FleetSim, FaultFreeRunsAreBitIdenticalAcrossWorkerCounts) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kTargetCount,
                                    9, 0xabcULL, 40, 4);
  SyntheticExecutor executor(planner);
  const auto expected = solo_reference(planner, /*target=*/3, executor);
  for (std::size_t workers = 1; workers <= 5; ++workers) {
    FaultPlan plan;
    plan.seed = workers;
    SimFleet fleet(planner, /*target=*/3, workers, executor, plan);
    const auto merged = fleet.run();
    ASSERT_TRUE(identical_records(merged, expected)) << workers;
    EXPECT_EQ(fleet.stats().corrupt_frames, 0u);
    EXPECT_EQ(fleet.stats().commits_rejected, 0u);
  }
}

// ---- CoordinatorCore-level fault dispositions ----------------------------

/// Pulls the single frame of \p kind out of the outbox (asserts there is
/// exactly one such frame queued for \p conn).
std::optional<Frame> take_reply(CoordinatorCore& core, ConnId conn,
                                MessageKind kind) {
  std::optional<Frame> found;
  for (auto& out : core.take_outbox()) {
    if (out.conn == conn &&
        out.frame.kind == static_cast<std::uint16_t>(kind)) {
      EXPECT_FALSE(found.has_value()) << "duplicate reply kind";
      found = std::move(out.frame);
    }
  }
  return found;
}

/// Handshakes \p conn and returns its first lease grant.
LeaseGrant handshake_and_lease(CoordinatorCore& core, ConnId conn,
                               std::uint64_t now) {
  core.on_connect(conn);
  core.on_frame(conn, make_hello({core.fingerprint()}), now);
  EXPECT_TRUE(take_reply(core, conn, MessageKind::kHelloAck).has_value());
  core.on_frame(conn, make_lease_request(), now);
  const auto grant = take_reply(core, conn, MessageKind::kLeaseGrant);
  EXPECT_TRUE(grant.has_value());
  return decode_lease_grant(grant->body);
}

/// A record per stream with the given success pattern.
std::vector<CampaignRecord> records_with(std::size_t first,
                                         const std::vector<bool>& successes) {
  std::vector<CampaignRecord> records(successes.size());
  for (std::size_t k = 0; k < successes.size(); ++k) {
    records[k].image_index = first + k;
    records[k].outcome.success = successes[k];
    if (successes[k]) records[k].outcome.adversarial = data::Image(4, 4);
  }
  return records;
}

/// Counts the lease grants the durable hook is told about.
class CountingHook final : public CoordinatorHook {
 public:
  void on_lease_granted(std::uint64_t, std::uint64_t,
                        std::uint64_t) override {
    ++grants;
  }
  void on_commit_admitted(std::uint64_t, std::uint64_t,
                          std::span<const CampaignRecord>) override {}
  void on_drained() override {}

  std::size_t grants = 0;
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().snapshot().counter_value(name);
}

Commit commit_for(SyntheticExecutor& executor, const LeaseGrant& grant) {
  Commit commit;
  commit.lease_id = grant.lease_id;
  commit.first_stream = grant.first_stream;
  commit.records =
      executor.execute({static_cast<std::size_t>(grant.first_stream),
                        static_cast<std::size_t>(grant.stream_count)});
  return commit;
}

TEST(FleetCoordinator, CorruptCommitIsReleasedToTheNextWorker) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 6,
                                    0x11ULL, 6, 2);
  SyntheticExecutor executor(planner);
  CoordinatorCore core(planner, /*target=*/0,
                       {/*lease_timeout=*/1000, "synthetic"});

  const auto grant1 = handshake_and_lease(core, /*conn=*/1, /*now=*/0);
  EXPECT_EQ(grant1.first_stream, 0u);
  // Worker 1's commit arrives mangled: the transport rejects the frame and
  // reports corruption. The lease must be revoked, the block re-leased.
  core.on_corrupt_frame(1);
  core.on_disconnect(1);
  EXPECT_EQ(core.stats().corrupt_frames, 1u);
  EXPECT_GE(core.stats().leases_reissued, 1u);

  const auto grant2 = handshake_and_lease(core, /*conn=*/2, /*now=*/10);
  EXPECT_EQ(grant2.first_stream, 0u);  // same block, fresh lease
  EXPECT_NE(grant2.lease_id, grant1.lease_id);

  core.on_frame(2, make_commit(commit_for(executor, grant2)), 20);
  EXPECT_TRUE(take_reply(core, 2, MessageKind::kCommitAck).has_value());
  EXPECT_EQ(core.stats().commits_accepted, 1u);
}

TEST(FleetCoordinator, DuplicateCommitIsAckedWithoutMerging) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 4,
                                    0x22ULL, 4, 2);
  SyntheticExecutor executor(planner);
  CoordinatorCore core(planner, /*target=*/0,
                       {/*lease_timeout=*/1000, "synthetic"});

  const auto grant = handshake_and_lease(core, 1, 0);
  const Commit commit = commit_for(executor, grant);
  core.on_frame(1, make_commit(commit), 5);
  EXPECT_TRUE(take_reply(core, 1, MessageKind::kCommitAck).has_value());
  // The CommitAck was lost; the worker resends the identical commit. It
  // must be acknowledged again (so the worker can move on) but not merged
  // a second time.
  core.on_frame(1, make_commit(commit), 6);
  EXPECT_TRUE(take_reply(core, 1, MessageKind::kCommitAck).has_value());
  EXPECT_EQ(core.stats().commits_accepted, 1u);
  EXPECT_EQ(core.stats().duplicate_commits, 1u);

  // Finish the campaign and check the duplicate left no trace.
  const auto grant2 = handshake_and_lease(core, 2, 10);
  core.on_frame(2, make_commit(commit_for(executor, grant2)), 15);
  ASSERT_TRUE(core.finished());
  const auto merged = core.take_result();
  const auto expected = solo_reference(planner, 0, executor);
  EXPECT_TRUE(identical_records(merged, expected));
}

TEST(FleetCoordinator, MismatchedCommitShapeIsRejectedAndReleased) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 6,
                                    0x33ULL, 6, 3);
  SyntheticExecutor executor(planner);
  CoordinatorCore core(planner, /*target=*/0,
                       {/*lease_timeout=*/1000, "synthetic"});

  const auto grant = handshake_and_lease(core, 1, 0);
  // A commit whose shape violates the plan (wrong stream count for the
  // leased block) must be rejected with kBadCommit — never merged.
  Commit bad;
  bad.lease_id = grant.lease_id;
  bad.first_stream = grant.first_stream;
  bad.records = executor.execute({grant.first_stream, 2});  // plan says 3
  core.on_frame(1, make_commit(bad), 5);
  const auto reject = take_reply(core, 1, MessageKind::kReject);
  ASSERT_TRUE(reject.has_value());
  EXPECT_EQ(decode_reject(reject->body).reason, RejectReason::kBadCommit);
  EXPECT_EQ(core.stats().commits_rejected, 1u);
  EXPECT_EQ(core.stats().commits_accepted, 0u);

  // The block goes back in the pool and completes normally.
  const auto again = handshake_and_lease(core, 2, 10);
  EXPECT_EQ(again.first_stream, grant.first_stream);
  core.on_frame(2, make_commit(commit_for(executor, again)), 15);
  EXPECT_EQ(core.stats().commits_accepted, 1u);
}

TEST(FleetCoordinator, RepeatedLeaseRequestResendsTheLiveLease) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 8,
                                    0x66ULL, 8, 2);
  SyntheticExecutor executor(planner);
  CountingHook hook;
  CoordinatorCore core(planner, /*target=*/0,
                       {/*lease_timeout=*/1000, "synthetic", &hook});
  const auto granted_before = counter("fleet_leases_granted_total");

  const auto first = handshake_and_lease(core, 1, 0);
  // The request is retried (or the frame duplicated): the same lease comes
  // back, and it is neither journaled nor counted a second time.
  core.on_frame(1, make_lease_request(), 3);
  const auto resent = take_reply(core, 1, MessageKind::kLeaseGrant);
  ASSERT_TRUE(resent.has_value());
  const LeaseGrant again = decode_lease_grant(resent->body);
  EXPECT_EQ(again.lease_id, first.lease_id);
  EXPECT_EQ(again.first_stream, first.first_stream);
  EXPECT_EQ(again.stream_count, first.stream_count);
  EXPECT_EQ(hook.grants, 1u);

  // Another connection gets the next block.
  const auto second = handshake_and_lease(core, 2, 4);
  EXPECT_EQ(second.first_stream, first.first_stream + first.stream_count);
  EXPECT_NE(second.lease_id, first.lease_id);
  EXPECT_EQ(hook.grants, 2u);

  // Once the commit is accepted, the next request mints a fresh lease.
  core.on_frame(1, make_commit(commit_for(executor, first)), 5);
  EXPECT_TRUE(take_reply(core, 1, MessageKind::kCommitAck).has_value());
  core.on_frame(1, make_lease_request(), 6);
  const auto next = take_reply(core, 1, MessageKind::kLeaseGrant);
  ASSERT_TRUE(next.has_value());
  const LeaseGrant fresh = decode_lease_grant(next->body);
  EXPECT_NE(fresh.lease_id, first.lease_id);
  EXPECT_NE(fresh.lease_id, second.lease_id);
  EXPECT_EQ(fresh.first_stream, second.first_stream + second.stream_count);
  EXPECT_EQ(hook.grants, 3u);
  EXPECT_EQ(counter("fleet_leases_granted_total") - granted_before, 3u);
}

TEST(FleetCoordinator, NoBlockIsLeasedPastTheProvableCut) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kTargetCount,
                                    6, 0x77ULL, 40, 2);
  CoordinatorCore core(planner, /*target=*/1,
                       {/*lease_timeout=*/1000, "synthetic"});
  const auto wasted_before = counter("fleet_streams_wasted_total");

  const auto low = handshake_and_lease(core, 1, 0);   // streams [0, 2)
  const auto high = handshake_and_lease(core, 2, 0);  // streams [2, 4)
  const auto late = handshake_and_lease(core, 3, 0);  // streams [4, 6)
  ASSERT_EQ(late.first_stream, 4u);
  // Stream 2 succeeds: the target's one success is known, so the cut is
  // at most 3 and the next pending block, [6, 8), can never be kept.
  core.on_frame(2, make_commit({high.lease_id, high.first_stream,
                                records_with(2, {true, false})}),
                5);
  EXPECT_TRUE(take_reply(core, 2, MessageKind::kCommitAck).has_value());
  ASSERT_FALSE(core.finished());
  core.on_frame(2, make_lease_request(), 6);
  EXPECT_TRUE(take_reply(core, 2, MessageKind::kIdle).has_value());
  EXPECT_EQ(core.stats().streams_past_cut, 0u);  // not decided yet

  // The gap below the bound still completes and decides the cut at 3.
  core.on_frame(1, make_commit({low.lease_id, low.first_stream,
                                records_with(0, {false, false})}),
                7);
  ASSERT_TRUE(core.finished());
  // Stream 3 was admitted but is past the cut.
  EXPECT_EQ(core.stats().streams_past_cut, 1u);
  // A block leased before the cut was known still lands, all of it waste.
  core.on_frame(3, make_commit({late.lease_id, late.first_stream,
                                records_with(4, {true, true})}),
                8);
  EXPECT_TRUE(take_reply(core, 3, MessageKind::kCommitAck).has_value());
  EXPECT_EQ(core.stats().streams_past_cut, 3u);
  EXPECT_EQ(counter("fleet_streams_wasted_total") - wasted_before, 3u);
  EXPECT_EQ(core.take_result().records.size(), 3u);
}

TEST(FleetWorker, IgnoresALateGrantCopyAndAnAckForAnotherLease) {
  // The coordinator re-sends a live lease to a repeated request, so a copy
  // of a grant can land after the worker executed and committed it; and a
  // duplicated CommitAck can land while the next commit is outstanding.
  const auto kind_of = [](const std::vector<Frame>& frames) {
    EXPECT_EQ(frames.size(), 1u);
    return frames.empty() ? MessageKind::kReject
                          : static_cast<MessageKind>(frames.front().kind);
  };
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 8,
                                    0x88ULL, 8, 2);
  SyntheticExecutor synthetic(planner);
  CountingExecutor counted(synthetic);
  WorkerCore worker(/*fingerprint=*/1, counted);
  (void)worker.hello();
  EXPECT_EQ(kind_of(worker.on_frame(make_hello_ack({7}))),
            MessageKind::kLeaseRequest);

  const Frame grant = make_lease_grant({/*lease_id=*/3, 0, 2});
  EXPECT_EQ(kind_of(worker.on_frame(grant)), MessageKind::kCommit);
  EXPECT_EQ(counted.streams, 2u);
  EXPECT_TRUE(worker.on_frame(make_commit_ack({2})).empty());
  EXPECT_EQ(worker.state(), WorkerCore::State::kAwaitCommitAck);
  EXPECT_EQ(kind_of(worker.on_frame(make_commit_ack({3}))),
            MessageKind::kLeaseRequest);

  EXPECT_TRUE(worker.on_frame(grant).empty());  // not executed again
  EXPECT_EQ(counted.streams, 2u);
  EXPECT_EQ(worker.state(), WorkerCore::State::kAwaitGrant);
  EXPECT_EQ(kind_of(worker.on_frame(make_lease_grant({4, 2, 2}))),
            MessageKind::kCommit);
  EXPECT_EQ(counted.streams, 4u);
}

TEST(FleetCoordinator, WrongFingerprintIsFatallyRejected) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 4,
                                    0x44ULL, 4, 2);
  CoordinatorCore core(planner, /*target=*/0,
                       {/*lease_timeout=*/1000, "synthetic"});
  core.on_connect(1);
  core.on_frame(1, make_hello({core.fingerprint() ^ 1}), 0);
  bool rejected = false;
  for (const auto& out : core.take_outbox()) {
    if (out.frame.kind == static_cast<std::uint16_t>(MessageKind::kReject)) {
      EXPECT_EQ(decode_reject(out.frame.body).reason,
                RejectReason::kBadFingerprint);
      EXPECT_TRUE(out.close_after);
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_EQ(core.stats().workers_rejected, 1u);
}

TEST(FleetCoordinator, DrainAbandonsAtTheFrontierAndShutsWorkersDown) {
  const shard::ShardPlanner planner(shard::ShardPlanner::Mode::kSweep, 8,
                                    0x55ULL, 8, 2);
  SyntheticExecutor executor(planner);
  CoordinatorCore core(planner, /*target=*/0,
                       {/*lease_timeout=*/1000, "synthetic"});
  const auto grant = handshake_and_lease(core, 1, 0);
  core.on_frame(1, make_commit(commit_for(executor, grant)), 5);
  EXPECT_TRUE(take_reply(core, 1, MessageKind::kCommitAck).has_value());

  core.drain();  // SIGTERM path
  ASSERT_TRUE(core.finished());
  bool shutdown = false;
  for (const auto& out : core.take_outbox()) {
    if (out.frame.kind ==
        static_cast<std::uint16_t>(MessageKind::kShutdown)) {
      shutdown = true;
    }
  }
  EXPECT_TRUE(shutdown);
  const auto partial = core.take_result();
  EXPECT_TRUE(partial.gave_up);
  EXPECT_EQ(partial.records.size(), 2u);  // exactly the committed frontier
}

// ---- end-to-end against the real runtime ---------------------------------

TEST(FleetSim, RealFuzzerMatchesRunCampaignSolo) {
  // The acceptance property verbatim: a federated campaign with a REAL
  // fuzzer under fault injection merges records bit-identical to
  // run_campaign(workers=1), in both stopping modes.
  hdc::ModelConfig model_config;
  model_config.dim = 256;
  model_config.seed = 5;
  const auto pair = data::make_digit_train_test(10, 2, 31);
  hdc::HdcClassifier model(model_config, 28, 28, 10);
  model.fit(pair.train);
  const GaussNoiseMutation strategy;
  FuzzConfig fuzz_config;
  fuzz_config.iter_times = 3;
  fuzz_config.seeds_per_iteration = 4;
  const Fuzzer fuzzer(model, strategy, fuzz_config);

  CampaignConfig sweep;
  sweep.fuzz = fuzz_config;
  sweep.max_images = 6;
  sweep.seed = 9;
  CampaignConfig targeted;
  targeted.fuzz = fuzz_config;
  targeted.target_adversarials = 2;
  targeted.max_streams = 10;
  targeted.shard_block = 3;
  targeted.seed = 9;

  for (const auto& config : {sweep, targeted}) {
    CampaignConfig solo = config;
    solo.workers = 1;
    const auto expected = run_campaign(fuzzer, pair.test, solo);
    const auto planner = shard::plan_campaign(config, pair.test.size());
    shard::SeedBank bank(fuzzer, pair.test);
    FuzzSliceExecutor executor(planner, fuzzer, pair.test, &bank);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      FaultPlan plan;
      plan.seed = seed * 101;
      plan.drop_pct = 10;
      plan.duplicate_pct = 10;
      plan.corrupt_pct = 10;
      plan.delay_pct = 20;
      plan.max_faults = 24;
      SimFleet fleet(planner, config.target_adversarials, /*workers=*/3,
                     executor, plan);
      const auto merged = fleet.run();
      ASSERT_TRUE(identical_records(merged, expected))
          << "target=" << config.target_adversarials << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace hdtest::fuzz::fleet
