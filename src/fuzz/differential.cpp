#include "fuzz/differential.hpp"

#include <stdexcept>

namespace hdtest::fuzz {

CrossModelFuzzer::CrossModelFuzzer(const hdc::HdcClassifier& model_a,
                                   const hdc::HdcClassifier& model_b,
                                   const MutationStrategy& strategy,
                                   FuzzConfig config)
    : model_a_(&model_a),
      model_b_(&model_b),
      strategy_(&strategy),
      config_(config) {
  config.validate();
  if (!model_a.trained() || !model_b.trained()) {
    throw std::logic_error("CrossModelFuzzer: both models must be trained");
  }
  if (model_a.encoder().width() != model_b.encoder().width() ||
      model_a.encoder().height() != model_b.encoder().height()) {
    throw std::invalid_argument("CrossModelFuzzer: image shape mismatch");
  }
  if (model_a.num_classes() != model_b.num_classes()) {
    throw std::invalid_argument("CrossModelFuzzer: class count mismatch");
  }
}

CrossModelOutcome CrossModelFuzzer::fuzz_one(const data::Image& input,
                                             util::Rng& rng) const {
  CrossModelOutcome outcome;

  // Both models answer on the packed query path: packed encodes, the packed
  // AM argmax and XOR+popcount similarities (the same labels and doubles as
  // the dense classifier calls).
  const auto& encoder_a = model_a_->encoder();
  const auto& encoder_b = model_b_->encoder();
  const auto& am_a = model_a_->am().packed();
  const auto& am_b = model_b_->am().packed();
  const auto ref_a = am_a.predict(encoder_a.encode_packed(input));
  const auto ref_b = am_b.predict(encoder_b.encode_packed(input));
  outcome.encodes += 2;
  if (ref_a != ref_b) {
    outcome.skipped = true;
    outcome.label_a = ref_a;
    outcome.label_b = ref_b;
    return outcome;
  }

  hdc::IncrementalPixelEncoder delta_a(encoder_a);
  hdc::IncrementalPixelEncoder delta_b(encoder_b);
  if (config_.use_incremental_encoder) {
    delta_a.rebase(input);
    delta_b.rebase(input);
  }

  std::vector<ScoredSeed> parents;
  parents.push_back(ScoredSeed{input, 0.0});

  for (std::size_t iter = 0; iter < config_.iter_times; ++iter) {
    ++outcome.iterations;
    std::vector<ScoredSeed> candidates;
    candidates.reserve(config_.seeds_per_iteration);
    for (std::size_t s = 0; s < config_.seeds_per_iteration; ++s) {
      const auto& parent = parents[s % parents.size()].image;
      data::Image mutant = strategy_->mutate(parent, rng);
      const auto perturbation = measure_perturbation(input, mutant);
      if (!config_.budget.accepts(perturbation)) continue;

      const auto query_a = config_.use_incremental_encoder
                               ? delta_a.encode_mutant_packed(mutant)
                               : encoder_a.encode_packed(mutant);
      const auto query_b = config_.use_incremental_encoder
                               ? delta_b.encode_mutant_packed(mutant)
                               : encoder_b.encode_packed(mutant);
      outcome.encodes += 2;
      const auto label_a = am_a.predict(query_a);
      const auto label_b = am_b.predict(query_b);
      if (label_a != label_b) {
        outcome.success = true;
        outcome.divergent = std::move(mutant);
        outcome.label_a = label_a;
        outcome.label_b = label_b;
        outcome.perturbation = perturbation;
        return outcome;
      }
      const double fitness = 1.0 - 0.5 * (am_a.similarity_to(ref_a, query_a) +
                                          am_b.similarity_to(ref_b, query_b));
      candidates.push_back(ScoredSeed{std::move(mutant), fitness});
    }
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    if (config_.guided) {
      keep_fittest(candidates, config_.keep_top_n);
    } else {
      keep_random(candidates, config_.keep_top_n, rng);
    }
    parents = std::move(candidates);
  }
  return outcome;
}

}  // namespace hdtest::fuzz
