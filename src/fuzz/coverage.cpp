#include "fuzz/coverage.hpp"

#include <stdexcept>

#include "fuzz/fitness.hpp"
#include "util/timer.hpp"

namespace hdtest::fuzz {

NoveltyArchive::NoveltyArchive(double add_threshold, std::size_t max_size)
    : add_threshold_(add_threshold), max_size_(max_size) {
  if (add_threshold < 0.0 || add_threshold > 2.0) {
    throw std::invalid_argument(
        "NoveltyArchive: add_threshold must be in [0, 2]");
  }
}

double NoveltyArchive::novelty(const hdc::PackedHv& query) const {
  if (entries_.empty()) return 2.0;
  double best = 2.0;
  for (const auto& entry : entries_) {
    const double distance = 1.0 - cosine(query, entry);
    if (distance < best) best = distance;
  }
  return best;
}

double NoveltyArchive::observe(const hdc::PackedHv& query) {
  const double score = novelty(query);
  if (score >= add_threshold_ &&
      (max_size_ == 0 || entries_.size() < max_size_)) {
    entries_.push_back(query);
  }
  return score;
}

void NoveltyArchive::add(const hdc::PackedHv& query) {
  if (max_size_ == 0 || entries_.size() < max_size_) {
    entries_.push_back(query);
  }
}

CoverageFuzzer::CoverageFuzzer(const hdc::HdcClassifier& model,
                               const MutationStrategy& strategy,
                               FuzzConfig config, double novelty_weight,
                               double archive_threshold)
    : model_(&model),
      strategy_(&strategy),
      config_(config),
      novelty_weight_(novelty_weight),
      archive_(archive_threshold) {
  config.validate();
  if (!model.trained()) {
    throw std::logic_error("CoverageFuzzer: model must be trained");
  }
  if (novelty_weight < 0.0 || novelty_weight > 1.0) {
    throw std::invalid_argument(
        "CoverageFuzzer: novelty_weight must be in [0, 1]");
  }
}

CoverageOutcome CoverageFuzzer::fuzz_one(const data::Image& input,
                                         util::Rng& rng) {
  const util::Stopwatch watch;
  CoverageOutcome outcome;
  const std::size_t archive_before = archive_.size();

  const auto& encoder = model_->encoder();
  const auto& packed_am = model_->am().packed();
  const auto reference_query = encoder.encode_packed(input);
  outcome.base.reference_label = packed_am.predict(reference_query);
  ++outcome.base.encodes;
  archive_.add(reference_query);  // seed the corpus with the clean input

  hdc::IncrementalPixelEncoder delta_encoder(encoder);
  if (config_.use_incremental_encoder) {
    delta_encoder.rebase(input);
  }

  std::vector<ScoredSeed> parents;
  parents.push_back(ScoredSeed{
      input,
      fitness_of(packed_am, outcome.base.reference_label, reference_query)});

  for (std::size_t iter = 0; iter < config_.iter_times; ++iter) {
    ++outcome.base.iterations;
    std::vector<ScoredSeed> candidates;
    candidates.reserve(config_.seeds_per_iteration);
    for (std::size_t s = 0; s < config_.seeds_per_iteration; ++s) {
      const auto& parent = parents[s % parents.size()].image;
      data::Image mutant = strategy_->mutate(parent, rng);
      const auto perturbation = measure_perturbation(input, mutant);
      if (!config_.budget.accepts(perturbation)) {
        ++outcome.base.discarded;
        continue;
      }
      const auto query = config_.use_incremental_encoder
                             ? delta_encoder.encode_mutant_packed(mutant)
                             : encoder.encode_packed(mutant);
      ++outcome.base.encodes;
      const auto label = packed_am.predict(query);
      if (label != outcome.base.reference_label) {
        outcome.base.success = true;
        outcome.base.adversarial = std::move(mutant);
        outcome.base.adversarial_label = label;
        outcome.base.perturbation = perturbation;
        outcome.base.seconds = watch.seconds();
        outcome.archive_growth = archive_.size() - archive_before;
        return outcome;
      }
      // Blended objective: class-distance fitness + representation novelty.
      const double fitness =
          fitness_of(packed_am, outcome.base.reference_label, query);
      const double novelty = archive_.observe(query) / 2.0;  // -> [0, 1]
      candidates.push_back(ScoredSeed{
          std::move(mutant),
          (1.0 - novelty_weight_) * fitness + novelty_weight_ * novelty});
    }
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    keep_fittest(candidates, config_.keep_top_n);
    parents = std::move(candidates);
  }

  outcome.base.seconds = watch.seconds();
  outcome.archive_growth = archive_.size() - archive_before;
  return outcome;
}

}  // namespace hdtest::fuzz
