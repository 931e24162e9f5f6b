// fleet-sim: the federated campaign on SimFleet — 4 simulated workers, the
// durable coordinator journaling and checkpointing to SimDisk, and a seeded
// faulty network. Each SimFleet is single-threaded on a virtual clock, so
// every protocol decision and count repeats exactly for a seed. One
// operation is one federated campaign; its merged records must equal the
// solo run_campaign(workers=1) records.
//
// How much a campaign over-fuzzes swings widely from campaign to campaign
// (lease churn under faults), so the outcome metrics need many campaigns:
// four threads each run whole campaigns, one SimFleet at a time.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fuzz/fleet/sim.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fuzz = hdtest::fuzz;
namespace fleet = hdtest::fuzz::fleet;

namespace {

constexpr std::size_t kSimWorkers = 4;
constexpr unsigned kCorruptPct = 5;
constexpr unsigned kDelayPct = 20;

struct FleetSize {
  DataSize data;  ///< input_sets = campaigns in the first pass
  std::size_t dim = 0;
  std::size_t target = 0;
  std::size_t setup_reps = 0;
  std::size_t probe_chunk = 0;  ///< probe generations after each traced op
  std::size_t rss_samples = 0;  ///< campaigns run alone for peak_rss_mb
};

FleetSize fleet_size(const Options& options) {
  if (options.tiny) return {{10, 4, 4}, 1024, 5, 2, 10, 1};
  // About 16 s of first pass on 4 cores, after about 7 s of memory samples.
  return {{100, 40, 44}, 1024, 100, 5, 15, 5};
}

/// Everything one federated campaign reports back to the calling thread.
struct FleetRun {
  std::size_t index = 0;  ///< operation number; index % distinct = seed
  bool traced = false;
  std::vector<std::string> failures;
  double wall = 0.0;
  double execute = 0.0;
  FuzzCounters counts;  ///< every executed stream
  std::size_t seed_warmups = 0;
  fuzz::CampaignResult merged;
  fleet::CoordinatorStats stats;
  std::size_t checkpoints = 0;
  std::size_t journal_seq = 0;
};

/// Runs \p threads workers that call op(i) for i = 0, 1, ... until i has
/// reached \p min_ops and \p seconds have passed. op must not throw.
void run_concurrently(std::size_t threads, double seconds, std::size_t min_ops,
                      const std::function<void(std::size_t)>& op) {
  const double deadline = now_s() + seconds;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= min_ops && now_s() >= deadline) return;
        op(i);
      }
    });
  }
  for (auto& thread : pool) thread.join();
}

}  // namespace

Report run_fleet_workload(const Options& options) {
  FleetSize size = fleet_size(options);
  if (options.dim != 0) size.dim = options.dim;
  const std::size_t distinct = size.data.input_sets;
  Report report;

  double setup_s = 0.0;
  const Substrate sub = timed_substrate(options.seed, size.dim, size.data,
                                        size.setup_reps, setup_s);
  const std::string strategy_name = "gauss";
  const auto strategy = fuzz::make_strategy(strategy_name);
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy(strategy_name);
  const fuzz::Fuzzer fuzzer(*sub.model, *strategy, fuzz_config);
  const auto config_for = [&](std::size_t k) {
    fuzz::CampaignConfig config;
    config.fuzz = fuzz_config;
    config.target_adversarials = size.target;
    config.workers = 1;
    config.seed = derive_seed(options.seed, SeedRole::kCampaign, k);
    return config;
  };
  std::printf("fleet-sim: D=%zu, gauss, %zu input sets of %zux10, target "
              "%zu, %zu simulated workers, %u%% corrupt + %u%% delayed "
              "frames, durable on SimDisk, %zu campaigns at a time, setup "
              "%.4f s\n",
              size.dim, distinct, size.data.test_per_class, size.target,
              kSimWorkers, kCorruptPct, kDelayPct, kWorkers, setup_s);

  // The reference: solo run_campaign(workers=1) records per campaign seed
  // (not timed).
  std::vector<fuzz::CampaignResult> solo(distinct);
  std::vector<std::string> solo_errors(distinct);
  run_concurrently(kWorkers, 0.0, distinct, [&](std::size_t k) {
    try {
      solo[k] = fuzz::run_campaign(fuzzer, sub.inputs[k], config_for(k));
    } catch (const std::exception& e) {
      solo_errors[k] = e.what();
    }
  });

  // One operation: one federated campaign of seed i % distinct.
  const auto run_one = [&](const fuzz::Fuzzer& fz, std::size_t i,
                           bool tracing) {
    FleetRun run;
    run.index = i;
    run.traced = tracing;
    const std::size_t k = i % distinct;
    const auto& inputs = sub.inputs[k];
    if (!solo_errors[k].empty()) {
      run.failures.push_back("solo reference: " + solo_errors[k]);
      return run;
    }
    try {
      const auto config = config_for(k);
      const auto planner = fuzz::shard::plan_campaign(config, inputs.size());
      fuzz::shard::SeedBank bank(fz, inputs);
      fleet::FuzzSliceExecutor executor(planner, fz, inputs, &bank);
      TimedExecutor counted(executor, tracing);
      fleet::FaultPlan plan;
      plan.seed = derive_seed(options.seed, SeedRole::kFaults, k);
      plan.corrupt_pct = kCorruptPct;
      plan.delay_pct = kDelayPct;
      fleet::DurablePlan durable;
      durable.enabled = true;
      durable.disk.seed = derive_seed(options.seed, SeedRole::kDisk, k);
      fleet::CoordinatorCore::Options core_options;
      core_options.strategy_name = strategy_name;
      fleet::SimFleet sim(planner, size.target, kSimWorkers, counted, plan,
                          core_options, durable);
      const double start = now_s();
      run.merged = sim.run();
      run.wall = now_s() - start;
      run.execute = counted.seconds;
      run.counts = counted.counts;
      // A fresh SeedBank builds each visited input's context once.
      run.seed_warmups = std::min<std::size_t>(inputs.size(),
                                               counted.counts.streams);
      run.stats = sim.stats();
      if (const auto* state = sim.durable_state(); state != nullptr) {
        run.checkpoints = state->checkpoints_written();
        run.journal_seq = state->sequence();
      }
      if (run.merged.gave_up || run.merged.successes() != size.target) {
        run.failures.push_back(
            "gave up at " + std::to_string(run.merged.successes()) +
            " adversarials");
      }
      if (!fuzz::identical_records(run.merged, solo[k])) {
        run.failures.push_back("merged records differ from solo run_campaign");
      }
    } catch (const std::exception& e) {
      run.failures.push_back(e.what());
    }
    return run;
  };

  // One phase of campaigns, four at a time. pick(i) gives operation i's
  // fuzzer (nullptr: untraced); after a traced operation, \p after runs.
  const auto run_phase = [&](double seconds,
                             const std::function<const fuzz::Fuzzer*(
                                 std::size_t)>& pick,
                             const std::function<void()>& after) {
    std::mutex runs_mutex;
    std::vector<FleetRun> runs;
    run_concurrently(kWorkers, seconds, distinct, [&](std::size_t i) {
      const fuzz::Fuzzer* traced_fz = pick(i);
      FleetRun run = run_one(traced_fz ? *traced_fz : fuzzer, i,
                             traced_fz != nullptr);
      if (run.traced) after();
      const std::lock_guard<std::mutex> lock(runs_mutex);
      runs.push_back(std::move(run));
    });
    std::sort(runs.begin(), runs.end(),
              [](const FleetRun& a, const FleetRun& b) {
                return a.index < b.index;
              });
    CampaignTally untraced_tally, traced_tally;
    for (const auto& run : runs) {
      ++report.attempted;
      const std::string what =
          "fleet campaign " + std::to_string(run.index % distinct);
      for (const auto& why : run.failures) report.fail(what + ": " + why);
      if (!run.failures.empty()) {
        ++report.failed;
        continue;
      }
      auto& tally = run.traced ? traced_tally : untraced_tally;
      tally.seconds_per_query.push_back(run.wall /
                                        static_cast<double>(run.counts.mutants));
      if (run.index >= distinct) continue;
      std::printf("%s: records digest %016llx, %zu records, %zu streams\n",
                  what.c_str(),
                  static_cast<unsigned long long>(records_digest(run.merged)),
                  run.merged.records.size(),
                  static_cast<std::size_t>(run.counts.streams));
      tally.queries += static_cast<double>(run.counts.mutants);
      tally.kept += static_cast<double>(run.merged.successes());
      for (const auto& record : run.merged.records) {
        if (record.outcome.success) {
          tally.l2_sum += record.outcome.perturbation.l2;
        }
      }
    }
    return std::make_tuple(std::move(runs), std::move(untraced_tally),
                           std::move(traced_tally));
  };

  if (!options.trace) {
    // Memory: campaigns overlap in the timed phase, and what the allocator
    // holds after overlapping campaigns depends on how they interleaved.
    // So peak_rss_mb comes from the first campaign seeds run one at a time
    // before that phase, each from a trimmed heap. A campaign's peak grows
    // with the streams it wastes, which swings from campaign to campaign,
    // so the samples are averaged (a median of few would jump between
    // light and heavy campaigns).
    double peak_sum = 0.0;
    for (std::size_t k = 0; k < size.rss_samples; ++k) {
      reset_peak_rss();
      const FleetRun run = run_one(fuzzer, k, false);
      peak_sum += peak_rss_mb();
      ++report.attempted;
      for (const auto& why : run.failures) {
        report.fail("fleet campaign " + std::to_string(k) + ": " + why);
      }
      if (!run.failures.empty()) ++report.failed;
    }
    auto untraced = std::get<1>(run_phase(
        options.seconds, [](std::size_t) { return nullptr; }, [] {}));
    untraced.peak_rss = {peak_sum / static_cast<double>(size.rss_samples)};
    untraced.fill_end_to_end(report, setup_s);
    return report;
  }

  // The traced pass alternates traced and untraced campaigns: in pass c,
  // seed k runs traced (timed strategy and executor, then a probe chunk)
  // when k + c is odd, so machine drift falls on both sides of
  // trace.overhead alike. Campaigns run concurrently and the span switch
  // is process-wide, so the library's spans stay on for the whole pass.
  const TimedStrategy timed(*strategy);
  const fuzz::Fuzzer traced_fuzzer(*sub.model, timed, fuzz_config);
  const auto planner =
      fuzz::shard::plan_campaign(config_for(0), sub.inputs[0].size());
  GenerationProbe prober(fuzzer, *sub.model, sub.inputs[0], planner,
                         solo[0].records);
  std::mutex prober_mutex;
  SpanTally spans;
  begin_tracing(spans);
  trace_spans(true);
  const auto [all_runs, untraced, traced] = run_phase(
      options.seconds,
      [&](std::size_t i) -> const fuzz::Fuzzer* {
        return (i % distinct + i / distinct) % 2 == 1 ? &traced_fuzzer
                                                      : nullptr;
      },
      [&] {
        const std::lock_guard<std::mutex> lock(prober_mutex);
        prober.run(size.probe_chunk);
      });
  end_tracing(spans);
  const ProbeResult probe = prober.result();
  check_probe(probe, report);

  // Layer totals of the traced campaigns.
  double wall = 0.0, execute = 0.0;
  FuzzCounters window;
  std::size_t runs = 0, kept = 0, commits = 0, duplicates = 0, reissued = 0,
              corrupt = 0, checkpoints = 0, journal_seq = 0, warmups = 0;
  std::vector<double> kept_stream_seconds;
  for (const auto& run : all_runs) {
    if (!run.traced) continue;
    ++runs;
    wall += run.wall;
    execute += run.execute;
    window += run.counts;
    kept += run.merged.records.size();
    commits += run.stats.commits_accepted;
    duplicates += run.stats.duplicate_commits;
    reissued += run.stats.leases_reissued;
    corrupt += run.stats.corrupt_frames;
    checkpoints += run.checkpoints;
    journal_seq += run.journal_seq;
    warmups += run.seed_warmups;
    for (const auto& record : run.merged.records) {
      kept_stream_seconds.push_back(record.outcome.seconds);
    }
  }

  auto& m = report.metrics;
  // Each SimFleet runs on one thread, so campaign wall time is worker time.
  fill_fuzz_layers(m, probe, window, timed, kept_stream_seconds, wall);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double n = d(runs);
  // Spans were on for every campaign of the pass, traced or not.
  const double spanned = d(all_runs.size());
  m["fleet.execute_share"] = execute / wall;
  m["fleet.protocol_ms"] = 1e3 * (wall - execute) / n;
  m["fleet.wall_ms"] = 1e3 * wall / n;
  m["fleet.streams_executed"] = d(window.streams) / n;
  m["fleet.useful_stream_ratio"] = d(kept) / d(window.streams);
  m["fleet.commits_accepted"] = d(commits) / n;
  m["fleet.duplicate_commits"] = d(duplicates) / n;
  m["fleet.leases_reissued"] = d(reissued) / n;
  m["fleet.corrupt_frames"] = d(corrupt) / n;
  m["durable.checkpoints"] = d(checkpoints) / n;
  m["durable.journal_seq"] = d(journal_seq) / n;
  m["durable.checkpoint_ms"] = 1e3 * spans.seconds["checkpoint"] / spanned;
  m["durable.fsync_ms"] = 1e3 * spans.seconds["journal_fsync"] / spanned;
  m["trace.spans_dropped"] = d(spans.dropped);
  const double fuzz_explained = attributed_fuzz_seconds(
      probe, window, timed.calls(), timed.seconds(), warmups);
  m["campaign.unattributed_share"] = (execute - fuzz_explained) / wall;
  m["trace.overhead"] = median(traced.seconds_per_query) /
                            median(untraced.seconds_per_query) -
                        1.0;
  return report;
}

}  // namespace perfbench
