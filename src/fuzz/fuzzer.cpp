#include "fuzz/fuzzer.hpp"

#include <stdexcept>

#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hdtest::fuzz {

void FuzzConfig::validate() const {
  if (iter_times == 0) {
    throw std::invalid_argument("FuzzConfig: iter_times must be >= 1");
  }
  if (seeds_per_iteration == 0) {
    throw std::invalid_argument("FuzzConfig: seeds_per_iteration must be >= 1");
  }
  if (keep_top_n == 0) {
    throw std::invalid_argument("FuzzConfig: keep_top_n must be >= 1");
  }
}

Fuzzer::Fuzzer(const hdc::HdcClassifier& model,
               const MutationStrategy& strategy, FuzzConfig config)
    : model_(&model), strategy_(&strategy), config_(config) {
  config.validate();
  if (!model.trained()) {
    throw std::logic_error("Fuzzer: model must be trained");
  }
}

SeedContext Fuzzer::prepare_seed(const data::Image& input) const {
  const auto& encoder = model_->encoder();
  SeedContext seed;
  seed.base_acc = hdc::Accumulator(encoder.dim());
  // One kernel pass yields both the delta re-encoder's base lanes and the
  // packed reference query.
  seed.reference = encoder.encode_into(input, seed.base_acc);
  seed.reference_label = model_->am().packed().predict(seed.reference);
  return seed;
}

std::vector<SeedContext> Fuzzer::prepare_seeds(
    std::span<const data::Image> inputs, std::size_t workers) const {
  std::vector<SeedContext> seeds(inputs.size());
  util::parallel_for(inputs.size(), workers,
                     [&](std::size_t i) { seeds[i] = prepare_seed(inputs[i]); });
  return seeds;
}

FuzzOutcome Fuzzer::fuzz_one(const data::Image& input, util::Rng& rng) const {
  return fuzz_one(input, rng, prepare_seed(input));
}

HDTEST_HOT_PATH FuzzOutcome Fuzzer::fuzz_one(const data::Image& input,
                                             util::Rng& rng,
                                             const SeedContext& seed) const {
  const util::Stopwatch watch;
  FuzzOutcome outcome;

  // Line 4: reference prediction of the original input (no label needed);
  // precomputed in the seed context, still counted as one model query.
  outcome.reference_label = seed.reference_label;
  ++outcome.encodes;

  // Delta re-encoder based at the original input: mutants differ from the
  // original in few pixels for sparse strategies, so re-encoding is cheap.
  // The base accumulator comes straight from the seed context (one O(D)
  // copy, no re-encode).
  hdc::IncrementalPixelEncoder delta_encoder(model_->encoder());
  if (config_.use_incremental_encoder) {
    delta_encoder.rebase(input, seed.base_acc);
  }
  // Steady-state query path: packed end to end. No dense Hypervector is
  // materialized and nothing is re-packed via from_dense per mutant
  // (asserted by tests/fuzz/dense_free_test).
  const auto encode_query = [&](const data::Image& image) {
    ++outcome.encodes;
    return config_.use_incremental_encoder
               ? delta_encoder.encode_mutant_packed(image)
               : model_->encoder().encode_packed(image);
  };

  // The packed snapshot of the associative memory answers the whole mutant
  // generation with XOR+popcount sweeps (bit-identical to the dense path).
  const auto& packed_am = model_->am().packed();

  // The surviving parent pool starts as the original input itself, scored
  // with its true fitness so elitism treats it like any other seed.
  std::vector<ScoredSeed> parents;
  parents.push_back(ScoredSeed{
      input, fitness_of(packed_am, outcome.reference_label, seed.reference)});

  // Per-generation scratch, hoisted out of the loop to reuse allocations.
  std::vector<data::Image> batch;
  std::vector<Perturbation> batch_perturbations;
  std::vector<hdc::PackedHv> batch_queries;

  for (std::size_t iter = 0; iter < config_.iter_times; ++iter) {
    ++outcome.iterations;

    // Line 6: generate this iteration's seeds from the surviving parents.
    batch.clear();
    batch_perturbations.clear();
    for (std::size_t s = 0; s < config_.seeds_per_iteration; ++s) {
      const auto& parent = parents[s % parents.size()].image;
      data::Image mutant = strategy_->mutate(parent, rng);

      // Paper IV: discard mutants beyond the perturbation threshold.
      auto perturbation = measure_perturbation(input, mutant);
      if (!config_.budget.accepts(perturbation)) {
        ++outcome.discarded;
        continue;
      }
      batch.push_back(std::move(mutant));
      batch_perturbations.push_back(perturbation);
    }

    // Line 7: query the HDC model under test — the entire surviving
    // generation through one query-blocked sweep that returns the argmax
    // label AND the reference-class similarity per mutant (the fitness
    // ingredient), so no class row is ever re-walked for scoring. fuzz_one
    // itself stays single-threaded (campaigns already parallelize across
    // inputs).
    batch_queries.clear();
    batch_queries.reserve(batch.size());
    for (const auto& mutant : batch) {
      batch_queries.push_back(encode_query(mutant));
    }
    const auto sweep =
        packed_am.predict_block(batch_queries, outcome.reference_label);

    // Line 8: differential check against the reference label. Scanning in
    // generation order returns the same first-flipping mutant as the
    // original one-at-a-time loop.
    for (std::size_t b = 0; b < batch.size(); ++b) {
      if (sweep.labels[b] != outcome.reference_label) {
        outcome.success = true;
        outcome.adversarial = std::move(batch[b]);
        outcome.adversarial_label = sweep.labels[b];
        outcome.perturbation = batch_perturbations[b];
        outcome.seconds = watch.seconds();
        return outcome;
      }
    }

    // No flip: fitness = 1 - similarity straight from the sweep's
    // reference-class scores (identical doubles to the dense cosine, so
    // selection is bit-identical too).
    std::vector<ScoredSeed> candidates;
    candidates.reserve(batch.size());
    for (std::size_t b = 0; b < batch.size(); ++b) {
      candidates.push_back(
          ScoredSeed{std::move(batch[b]), 1.0 - sweep.ref_scores[b]});
    }

    // Line 14: continue fuzzing using only the fittest seeds. Parents stay
    // in the pool (elitism) so a lucky mutant is never thrown away; when
    // every candidate was discarded by the budget the parents simply carry
    // over to the next iteration.
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    if (config_.guided) {
      keep_fittest(candidates, config_.keep_top_n);
    } else {
      keep_random(candidates, config_.keep_top_n, rng);
    }
    parents = std::move(candidates);
  }

  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace hdtest::fuzz
