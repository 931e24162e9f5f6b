/// \file accuracy_sweep.cpp
/// Reproduces the **section V-A setup claim** — "training and testing the
/// HDC model at an accuracy around 90%" — and ablates the two model design
/// choices that trade accuracy against robustness:
///
///  - hypervector dimensionality D (accuracy and robustness both rise with D);
///  - value-memory strategy (the paper's i.i.d. random memory vs correlated
///    level/thermometer encodings: correlated value HVs resist tiny-noise
///    attacks because nearby gray levels stay similar).
///
/// For each configuration we report clean accuracy and single-shot attack
/// susceptibility (fraction of test images flipped by one gauss mutation).

#include <cstdio>

#include "baseline/unguided.hpp"
#include "bench_common.hpp"
#include "fuzz/mutation.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace hdtest;
  benchutil::BenchParams params;
  const auto data = data::make_digit_train_test(params.train_per_class,
                                                params.test_per_class,
                                                params.seed);
  std::printf("=== accuracy_sweep ===\n");
  std::printf("reproduces: section V-A (HDC model ~90%% accuracy) + D/value-"
              "memory ablations\n");
  std::printf("data: %zu train / %zu test images\n\n", data.train.size(),
              data.test.size());

  util::TextTable table;
  table.set_header({"D", "Value memory", "Train (s)", "Accuracy",
                    "1-shot flip rate"});
  table.set_alignments({util::Align::kRight, util::Align::kLeft,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight});
  util::CsvWriter csv(benchutil::out_dir() + "/accuracy_sweep.csv");
  csv.header({"dim", "value_strategy", "train_seconds", "accuracy",
              "single_shot_flip_rate"});

  const fuzz::GaussNoiseMutation probe;  // fixed noise probe for robustness
  fuzz::PerturbationBudget budget;       // paper default L2 <= 1

  const hdc::ValueStrategy strategies[] = {hdc::ValueStrategy::kRandom,
                                           hdc::ValueStrategy::kLevel,
                                           hdc::ValueStrategy::kThermometer};
  for (const std::size_t dim : {512u, 1024u, 2048u, 4096u, 8192u}) {
    for (const auto strategy : strategies) {
      // Only sweep value strategies at the headline dimension; sweep D at
      // the paper-default random memory.
      if (strategy != hdc::ValueStrategy::kRandom && dim != 4096u) continue;

      hdc::ModelConfig config;
      config.dim = dim;
      config.seed = params.seed;
      config.value_strategy = strategy;
      hdc::HdcClassifier model(config, 28, 28, 10);
      const util::Stopwatch watch;
      model.fit(data.train);
      const double train_s = watch.seconds();
      const double accuracy = model.evaluate(data.test).accuracy();

      const auto attack = baseline::run_random_attack(
          model, probe, data.test.take(100), budget, 1, params.seed);

      table.add_row({std::to_string(dim), to_string(strategy),
                     util::TextTable::num(train_s, 2),
                     util::TextTable::num(100.0 * accuracy, 1) + "%",
                     util::TextTable::num(100.0 * attack.success_rate(), 1) +
                         "%"});
      csv.row(dim, to_string(strategy), train_s, accuracy,
              attack.success_rate());
    }
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "expectations: accuracy ~90%% at the paper operating point (random\n"
      "value memory, D >= 2048); accuracy grows with D; correlated value\n"
      "memories (level/thermometer) resist single-mutation flips far better\n"
      "than the paper's random memory — the structural weakness HDTest\n"
      "exploits.\n");
  std::printf("CSV written to %s/accuracy_sweep.csv\n",
              benchutil::out_dir().c_str());
  return 0;
}
