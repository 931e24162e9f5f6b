// campaign-gauss / campaign-rand: run_campaign in target-count mode on the
// 4-worker shard runtime. One operation is one campaign. The first pass runs
// one campaign per input set (a fixed set per workload seed, which gives
// the outcome metrics); then the campaign seeds repeat until the time is
// up, and each repeat must reproduce its first digest (the shard
// determinism contract). Speed is the median wall time per model query
// over every campaign of the run.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "fuzz/distance.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/plan.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fuzz = hdtest::fuzz;

namespace {

struct CampaignSize {
  DataSize data;  ///< input_sets = campaigns in the first pass
  std::size_t target = 0;
  std::size_t setup_reps = 0;
  std::size_t probe_chunk = 0;  ///< probe generations after each traced op
};

CampaignSize campaign_size(const Options& options, const std::string& strategy) {
  if (options.tiny) return {{10, 4, 2}, 5, 2, 10};
  // The first pass takes about 5 s (gauss) and 16 s (rand) on a 4-core
  // box. How many queries an adversarial costs depends mostly on the
  // inputs, so the pass spreads its adversarials over many input sets.
  if (strategy == "rand") return {{100, 40, 16}, 40, 5, 60};
  return {{100, 40, 16}, 300, 5, 20};
}

/// Runs op(i) for i = 0, 1, ... until \p seconds have passed and at least
/// \p min_ops operations ran. Operation i runs campaign seed i % distinct,
/// so the first pass is i < distinct and later passes repeat it.
template <typename Op>
void cycle_campaigns(double seconds, std::size_t min_ops, Op op) {
  const double deadline = now_s() + seconds;
  for (std::size_t i = 0;; ++i) {
    op(i);
    if (i + 1 >= min_ops && now_s() >= deadline) break;
  }
}

/// What the first run of each campaign seed left for later runs.
struct SeedState {
  bool done = false;
  std::uint64_t digest = 0;
};

/// Re-checks every kept adversarial on the in-memory model: the original
/// predicts the reference label, the adversarial predicts its recorded,
/// different label, and the perturbation is the recorded one and in budget.
bool check_adversarials(const hdtest::hdc::HdcClassifier& model,
                        const hdtest::data::Dataset& inputs,
                        const fuzz::CampaignResult& result,
                        const fuzz::PerturbationBudget& budget, Report& report,
                        const std::string& what) {
  std::vector<hdtest::data::Image> originals;
  std::vector<hdtest::data::Image> adversarials;
  std::vector<const fuzz::FuzzOutcome*> outcomes;
  for (const auto& record : result.records) {
    if (!record.outcome.success) continue;
    originals.push_back(inputs.images[record.image_index]);
    adversarials.push_back(record.outcome.adversarial);
    outcomes.push_back(&record.outcome);
  }
  const auto original_labels = model.predict_batch(originals, kWorkers);
  const auto adversarial_labels = model.predict_batch(adversarials, kWorkers);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = *outcomes[i];
    const auto p = fuzz::measure_perturbation(originals[i], adversarials[i]);
    if (original_labels[i] != o.reference_label ||
        adversarial_labels[i] == o.reference_label ||
        adversarial_labels[i] != o.adversarial_label || !budget.accepts(p) ||
        p.l2 != o.perturbation.l2) {
      ++bad;
    }
  }
  if (bad != 0) {
    report.fail(what + ": " + std::to_string(bad) + " of " +
                std::to_string(outcomes.size()) +
                " adversarials fail the re-check on the in-memory model");
  }
  return bad == 0;
}

}  // namespace

Report run_campaign_workload(const Options& options,
                             const std::string& strategy_name,
                             std::size_t dim) {
  const CampaignSize size = campaign_size(options, strategy_name);
  if (options.dim != 0) dim = options.dim;
  if (options.tiny) dim = 1024;
  const std::size_t distinct = size.data.input_sets;
  Report report;

  double setup_s = 0.0;
  const Substrate sub = timed_substrate(options.seed, dim, size.data,
                                        size.setup_reps, setup_s);
  const auto strategy = fuzz::make_strategy(strategy_name);
  fuzz::FuzzConfig fuzz_config;
  fuzz_config.budget = fuzz::default_budget_for_strategy(strategy_name);
  const fuzz::Fuzzer fuzzer(*sub.model, *strategy, fuzz_config);
  const auto config_for = [&](std::size_t k) {
    fuzz::CampaignConfig config;
    config.fuzz = fuzz_config;
    config.target_adversarials = size.target;
    config.workers = kWorkers;
    config.seed = derive_seed(options.seed, SeedRole::kCampaign, k);
    return config;
  };
  std::printf("campaign-%s: D=%zu, train %zux10, %zu input sets of %zux10, "
              "target %zu, %zu workers, setup %.4f s\n",
              strategy_name.c_str(), dim, size.data.train_per_class, distinct,
              size.data.test_per_class, size.target, kWorkers, setup_s);

  std::vector<SeedState> seeds(distinct);
  std::vector<fuzz::CampaignRecord> probe_records;  // campaign 0, first run
  CampaignTally untraced;
  CampaignTally traced;
  // Traced-operation layer totals.
  FuzzCounters window;
  std::vector<double> kept_stream_seconds;
  std::size_t seed_warmups = 0;
  double traced_wall = 0.0;
  std::size_t traced_campaigns = 0;

  // One operation: one campaign of seed k.
  const auto run_one = [&](const fuzz::Fuzzer& fz, std::size_t k,
                           CampaignTally& tally, bool tracing) {
    ++report.attempted;
    const std::string what = "campaign " + std::to_string(k);
    const auto& inputs = sub.inputs[k];
    try {
      const auto before = FuzzCounters::read(strategy_name);
      reset_peak_rss();
      const double start = now_s();
      auto result = fuzz::run_campaign(fz, inputs, config_for(k));
      const double wall = now_s() - start;
      const auto delta = FuzzCounters::read(strategy_name) - before;
      bool ok = true;
      if (result.gave_up || result.successes() != size.target) {
        report.fail(what + ": gave up at " +
                    std::to_string(result.successes()) + " adversarials");
        ok = false;
      }
      const std::uint64_t digest = records_digest(result);
      auto& seed = seeds[k];
      if (!seed.done) {
        seed.done = true;
        seed.digest = digest;
        ok = check_adversarials(*sub.model, inputs, result,
                                fuzz_config.budget, report, what) && ok;
        std::printf("%s: records digest %016llx, %zu records\n", what.c_str(),
                    static_cast<unsigned long long>(digest),
                    result.records.size());
        tally.queries += static_cast<double>(delta.mutants);
        tally.kept += static_cast<double>(result.successes());
        for (const auto& record : result.records) {
          if (record.outcome.success) {
            tally.l2_sum += record.outcome.perturbation.l2;
          }
        }
        if (k == 0) probe_records = result.records;
      } else if (digest != seed.digest) {
        report.fail(what + ": records digest changed between runs");
        ok = false;
      }
      tally.seconds_per_query.push_back(wall /
                                        static_cast<double>(delta.mutants));
      tally.peak_rss.push_back(peak_rss_mb());
      if (tracing) {
        window += delta;
        traced_wall += wall;
        ++traced_campaigns;
        seed_warmups += std::min<std::size_t>(inputs.size(), delta.streams);
        for (const auto& record : result.records) {
          kept_stream_seconds.push_back(record.outcome.seconds);
        }
      }
      if (!ok) ++report.failed;
    } catch (const std::exception& e) {
      report.fail(what + ": " + e.what());
      ++report.failed;
    }
  };

  if (!options.trace) {
    cycle_campaigns(options.seconds, distinct + 1, [&](std::size_t i) {
      run_one(fuzzer, i % distinct, untraced, false);
    });
    untraced.fill_end_to_end(report, setup_s);
    return report;
  }

  // The traced pass alternates traced and untraced campaigns: in pass c,
  // seed k runs traced (timed strategy, library spans on, then a probe
  // chunk) when k + c is odd, so every seed runs both ways and drift of the
  // machine falls on both sides of trace.overhead alike. Records must not
  // move between the two.
  const TimedStrategy timed(*strategy);
  const fuzz::Fuzzer traced_fuzzer(*sub.model, timed, fuzz_config);
  const auto planner =
      fuzz::shard::plan_campaign(config_for(0), sub.inputs[0].size());
  std::optional<GenerationProbe> prober;
  SpanTally spans;
  begin_tracing(spans);
  cycle_campaigns(options.seconds, distinct + 1, [&](std::size_t i) {
    const std::size_t k = i % distinct;
    if ((k + i / distinct) % 2 == 0) {
      run_one(fuzzer, k, untraced, false);
      return;
    }
    trace_spans(true);
    run_one(traced_fuzzer, k, traced, true);
    trace_spans(false);
    spans.drain();
    // Campaign 0 runs untraced first, so its records exist by now.
    if (!prober) {
      prober.emplace(fuzzer, *sub.model, sub.inputs[0], planner,
                     probe_records);
    }
    prober->run(size.probe_chunk);
  });
  end_tracing(spans);

  const ProbeResult probe = prober ? prober->result() : ProbeResult{};
  check_probe(probe, report);
  const double worker_seconds = static_cast<double>(kWorkers) * traced_wall;
  auto& m = report.metrics;
  fill_fuzz_layers(m, probe, window, timed, kept_stream_seconds,
                   worker_seconds);
  double kept_busy = 0.0;
  for (const double s : kept_stream_seconds) kept_busy += s;
  const double n = static_cast<double>(traced_campaigns);
  m["shard.busy_share"] = kept_busy / worker_seconds;
  m["shard.overshoot_streams"] =
      (static_cast<double>(window.streams) -
       static_cast<double>(kept_stream_seconds.size())) / n;
  m["shard.slices"] = static_cast<double>(window.slices) / n;
  m["shard.stop_cuts"] = static_cast<double>(window.stop_cuts) / n;
  m["shard.sweep_ms"] =
      spans.count["sweep"] == 0
          ? 0.0
          : 1e3 * spans.seconds["sweep"] /
                static_cast<double>(spans.count["sweep"]);
  m["trace.spans_dropped"] = static_cast<double>(spans.dropped);
  m["campaign.unattributed_share"] =
      1.0 - attributed_fuzz_seconds(probe, window, timed.calls(),
                                    timed.seconds(), seed_warmups) /
                worker_seconds;
  m["trace.overhead"] = median(traced.seconds_per_query) /
                            median(untraced.seconds_per_query) -
                        1.0;
  return report;
}

}  // namespace perfbench
