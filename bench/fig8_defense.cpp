/// \file fig8_defense.cpp
/// Reproduces **Fig. 8 / section V-D** of the paper: the retraining defense.
///
///  (1) HDTest generates an adversarial pool against the victim model
///      (100% attack success on the undefended model, by construction);
///  (2) half the pool retrains the model with correct (reference) labels;
///  (3) the held-out half re-attacks.
///
/// Paper claim: "after retraining, the rate of successful attack drops more
/// than 20%". Both retraining modes are reported (kAddOnly matches the
/// paper's wording; kAddSubtract is the standard stronger HDC update) —
/// this doubles as the ablation of which retraining rule to use.

#include <cstdio>

#include "bench_common.hpp"
#include "defense/retrain_defense.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/mutation.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace hdtest;
  benchutil::BenchParams params;
  // The paper uses 1000 adversarials; 300 keeps the default run fast while
  // giving stable rates (override with HDTEST_TARGET_ADV).
  const auto target = benchutil::env_u64("HDTEST_TARGET_ADV", 300);
  const auto setup = benchutil::make_standard_setup(params);
  benchutil::print_banner("fig8_defense",
                          "Fig. 8 / V-D (defense via retraining)", setup);

  // (1) Generate the adversarial pool with the standard gauss configuration.
  const fuzz::GaussNoiseMutation strategy;
  fuzz::FuzzConfig fuzz_config;
  const fuzz::Fuzzer fuzzer(*setup.model, strategy, fuzz_config);
  fuzz::CampaignConfig campaign_config;
  campaign_config.fuzz = fuzz_config;
  campaign_config.target_adversarials = target;
  campaign_config.seed = setup.params.seed;
  const auto campaign =
      fuzz::run_campaign(fuzzer, setup.data.test, campaign_config);
  if (campaign.gave_up) {
    std::printf("FAILURE: campaign gave up at %zu/%llu adversarials; "
                "defense numbers would be meaningless\n",
                campaign.successes(),
                static_cast<unsigned long long>(target));
    return 1;
  }
  const auto pool = defense::collect_adversarials(campaign, 10);
  std::printf("adversarial pool: %zu images (%s)\n\n", pool.size(),
              util::format_duration(campaign.total_seconds).c_str());

  util::TextTable table;
  table.set_header({"Retrain mode", "Attack rate before", "Attack rate after",
                    "Drop", "Clean acc before", "Clean acc after"});
  table.set_alignments({util::Align::kLeft, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  util::CsvWriter csv(benchutil::out_dir() + "/fig8_defense.csv");
  csv.header({"mode", "pool", "attack_before", "attack_after", "drop",
              "clean_before", "clean_after"});

  const struct {
    const char* name;
    hdc::RetrainMode mode;
  } modes[] = {{"add-only (paper wording)", hdc::RetrainMode::kAddOnly},
               {"add+subtract (standard)", hdc::RetrainMode::kAddSubtract}};
  for (const auto& mode : modes) {
    // Fresh victim per mode: run_defense mutates the model.
    hdc::ModelConfig config;
    config.dim = setup.params.dim;
    config.seed = setup.params.seed;
    hdc::HdcClassifier victim(config, 28, 28, 10);
    victim.fit(setup.data.train);

    defense::DefenseConfig defense_config;
    defense_config.retrain_mode = mode.mode;
    defense_config.epochs = 2;
    const auto result =
        defense::run_defense(victim, pool, setup.data.test, defense_config);

    table.add_row({mode.name,
                   util::TextTable::num(100.0 * result.attack_rate_before, 1) + "%",
                   util::TextTable::num(100.0 * result.attack_rate_after, 1) + "%",
                   util::TextTable::num(100.0 * result.attack_rate_drop(), 1) + "pp",
                   util::TextTable::num(100.0 * result.clean_accuracy_before, 1) + "%",
                   util::TextTable::num(100.0 * result.clean_accuracy_after, 1) + "%"});
    csv.row(mode.name, result.pool_size, result.attack_rate_before,
            result.attack_rate_after, result.attack_rate_drop(),
            result.clean_accuracy_before, result.clean_accuracy_after);
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "paper: attack success starts at 100%% and drops by more than 20\n"
      "percentage points after retraining on the other half of the pool.\n");
  std::printf("CSV written to %s/fig8_defense.csv\n",
              benchutil::out_dir().c_str());
  return 0;
}
