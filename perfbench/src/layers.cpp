#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common.hpp"
#include "fuzz/distance.hpp"
#include "fuzz/fitness.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace hdc = hdtest::hdc;
namespace fuzz = hdtest::fuzz;
namespace obs = hdtest::obs;

namespace {

std::atomic<std::uint64_t> g_next_strategy_id{1};

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

TimedStrategy::TimedStrategy(const fuzz::MutationStrategy& inner)
    : inner_(&inner), id_(g_next_strategy_id.fetch_add(1)) {}

TimedStrategy::Slot& TimedStrategy::local_slot() const {
  thread_local std::uint64_t cached_id = 0;
  thread_local Slot* cached = nullptr;
  if (cached_id != id_) {
    auto slot = std::make_unique<Slot>();
    cached = slot.get();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      slots_.push_back(std::move(slot));
    }
    cached_id = id_;
  }
  return *cached;
}

hdtest::data::Image TimedStrategy::mutate(const hdtest::data::Image& seed,
                                          hdtest::util::Rng& rng) const {
  Slot& slot = local_slot();
  const auto start = std::chrono::steady_clock::now();
  auto mutant = inner_->mutate(seed, rng);
  slot.ns.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  return mutant;
}

std::uint64_t TimedStrategy::calls() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->calls.load();
  return total;
}

double TimedStrategy::seconds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_) total += slot->ns.load();
  return static_cast<double>(total) * 1e-9;
}

std::vector<fuzz::CampaignRecord> TimedExecutor::execute(
    const fuzz::shard::StreamSlice& slice) {
  const double start = timed_ ? now_s() : 0.0;
  auto records = inner_->execute(slice);
  if (timed_) seconds += now_s() - start;
  ++slices;
  for (const auto& record : records) counts.add(record.outcome);
  return records;
}

void SpanTally::drain() {
  auto& ring = obs::global_trace_ring();
  for (const auto& event : ring.drain()) {
    ++count[event.name];
    seconds[event.name] += static_cast<double>(event.dur_ns) * 1e-9;
  }
  dropped = ring.dropped() - dropped_base;
}

void begin_tracing(SpanTally& tally) {
  auto& ring = obs::global_trace_ring();
  (void)ring.drain();
  tally = SpanTally{};
  tally.dropped_base = ring.dropped();
}

void trace_spans(bool on) { obs::set_trace_enabled(on); }

void end_tracing(SpanTally& tally) {
  obs::set_trace_enabled(false);
  tally.drain();
}

FuzzCounters FuzzCounters::read(const std::string& strategy) {
  auto& reg = obs::Registry::global();
  const std::string label = "{strategy=\"" + strategy + "\"}";
  FuzzCounters c;
  c.streams = reg.counter("fuzz_streams_total" + label).value();
  c.mutants = reg.counter("fuzz_mutants_total" + label).value();
  c.adversarials = reg.counter("fuzz_adversarials_total" + label).value();
  c.discarded = reg.counter("fuzz_discarded_total" + label).value();
  c.iterations = reg.counter("fuzz_iterations_total" + label).value();
  c.slices = reg.counter("shard_slices_claimed_total").value();
  c.stop_cuts = reg.counter("shard_stop_cuts_total").value();
  return c;
}

void FuzzCounters::add(const fuzz::FuzzOutcome& outcome) {
  ++streams;
  mutants += outcome.encodes;
  discarded += outcome.discarded;
  iterations += outcome.iterations;
  if (outcome.success) ++adversarials;
}

FuzzCounters FuzzCounters::operator-(const FuzzCounters& base) const {
  FuzzCounters d;
  d.streams = streams - base.streams;
  d.mutants = mutants - base.mutants;
  d.adversarials = adversarials - base.adversarials;
  d.discarded = discarded - base.discarded;
  d.iterations = iterations - base.iterations;
  d.slices = slices - base.slices;
  d.stop_cuts = stop_cuts - base.stop_cuts;
  return d;
}

GenerationProbe::GenerationProbe(const fuzz::Fuzzer& fuzzer,
                                 const hdc::HdcClassifier& model,
                                 const hdtest::data::Dataset& inputs,
                                 const fuzz::shard::ShardPlanner& planner,
                                 std::vector<fuzz::CampaignRecord> records)
    : fuzzer_(&fuzzer),
      model_(&model),
      inputs_(&inputs),
      planner_(planner),
      records_(std::move(records)),
      delta_encoder_(model.encoder()) {}

void GenerationProbe::run(std::size_t generations) {
  const std::size_t wrap = std::min(records_.size(), planner_.stream_limit());
  if (wrap == 0) return;
  const std::size_t goal = generations_ + generations;
  while (generations_ < goal) {
    replay_stream(next_stream_);
    next_stream_ = (next_stream_ + 1) % wrap;
  }
}

void GenerationProbe::replay_stream(std::size_t s) {
  const auto& config = fuzzer_->config();
  const auto& strategy = fuzzer_->strategy();
  const auto& packed_am = model_->am().packed();
  const auto& input = inputs_->images[planner_.input_of(s)];
  double start = now_s();
  const auto seed = fuzzer_->prepare_seed(input);
  t_warm_ += now_s() - start;
  start = now_s();
  const auto full = model_->encoder().encode_packed(input);
  t_full_ += now_s() - start;
  (void)full;
  delta_encoder_.rebase(input, seed.base_acc);

  // Algorithm 1 exactly as Fuzzer::fuzz_one runs it (same RNG draws), so
  // the sample is the campaign's own generations.
  hdtest::util::Rng rng(planner_.stream_seed(s));
  bool success = false;
  std::size_t iterations = 0, encodes = 1, discarded = 0, label = 0;
  hdtest::data::Image adversarial;
  std::vector<fuzz::ScoredSeed> parents;
  parents.push_back(fuzz::ScoredSeed{
      input,
      fuzz::fitness_of(packed_am, seed.reference_label, seed.reference)});
  std::vector<hdtest::data::Image> batch;
  std::vector<hdc::PackedHv> queries;
  for (std::size_t iter = 0; iter < config.iter_times && !success; ++iter) {
    ++iterations;
    ++generations_;
    batch.clear();
    for (std::size_t m = 0; m < config.seeds_per_iteration; ++m) {
      auto mutant = strategy.mutate(parents[m % parents.size()].image, rng);
      start = now_s();
      const auto perturbation = fuzz::measure_perturbation(input, mutant);
      t_perturb_ += now_s() - start;
      ++n_perturb_;
      if (!config.budget.accepts(perturbation)) {
        ++discarded;
        continue;
      }
      batch.push_back(std::move(mutant));
    }
    queries.clear();
    for (const auto& mutant : batch) {
      start = now_s();
      queries.push_back(delta_encoder_.encode_mutant_packed(mutant));
      t_delta_ += now_s() - start;
      ++n_delta_;
      ++encodes;
      pixels_ += delta_encoder_.last_delta_count();
    }
    start = now_s();
    const auto sweep = packed_am.predict_block(queries, seed.reference_label);
    t_sweep_ += now_s() - start;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      if (sweep.labels[b] != seed.reference_label) {
        success = true;
        label = sweep.labels[b];
        adversarial = std::move(batch[b]);
        break;
      }
    }
    if (success) break;
    std::vector<fuzz::ScoredSeed> candidates;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      candidates.push_back(
          fuzz::ScoredSeed{std::move(batch[b]), 1.0 - sweep.ref_scores[b]});
    }
    for (auto& parent : parents) candidates.push_back(std::move(parent));
    if (config.guided) {
      start = now_s();
      fuzz::keep_fittest(candidates, config.keep_top_n);
      t_select_ += now_s() - start;
      ++n_select_;
    } else {
      fuzz::keep_random(candidates, config.keep_top_n, rng);
    }
    parents = std::move(candidates);
  }
  ++streams_;
  const auto& want = records_[s].outcome;
  if (want.success == success && want.iterations == iterations &&
      want.encodes == encodes && want.discarded == discarded &&
      (!success || (want.adversarial_label == label &&
                    std::ranges::equal(want.adversarial.pixels(),
                                       adversarial.pixels())))) {
    ++matches_;
  }
}

ProbeResult GenerationProbe::result() const {
  const auto per_us = [](double seconds, std::size_t calls) {
    return calls == 0 ? 0.0 : 1e6 * seconds / static_cast<double>(calls);
  };
  const auto ratio = [](std::size_t num, std::size_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  ProbeResult probe;
  probe.encode_delta_us = per_us(t_delta_, n_delta_);
  probe.delta_pixels = ratio(pixels_, n_delta_);
  probe.perturb_us = per_us(t_perturb_, n_perturb_);
  probe.sweep_us = per_us(t_sweep_, generations_);
  probe.select_us = per_us(t_select_, n_select_);
  probe.encode_full_us = per_us(t_full_, streams_);
  probe.warmup_us = per_us(t_warm_, streams_);
  probe.streams = streams_;
  probe.generations = generations_;
  probe.replay_match = ratio(matches_, streams_);
  return probe;
}

FuzzCounters& FuzzCounters::operator+=(const FuzzCounters& more) {
  streams += more.streams;
  mutants += more.mutants;
  adversarials += more.adversarials;
  discarded += more.discarded;
  iterations += more.iterations;
  slices += more.slices;
  stop_cuts += more.stop_cuts;
  return *this;
}

void check_probe(const ProbeResult& probe, Report& report) {
  if (probe.generations == 0) {
    report.fail("layer probe replayed no generation");
  } else if (probe.replay_match < 1.0) {
    report.fail("layer probe no longer follows fuzz_one: " +
                std::to_string(probe.replay_match) +
                " of replayed streams match their campaign records");
  }
}

double attributed_fuzz_seconds(const ProbeResult& probe,
                               const FuzzCounters& window,
                               std::uint64_t mutate_calls,
                               double mutate_seconds,
                               std::size_t seed_warmups) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double us =
      probe.encode_delta_us * d(window.mutants - window.streams) +
      probe.perturb_us * d(mutate_calls) +
      probe.sweep_us * d(window.iterations) +
      probe.select_us * d(window.iterations - window.adversarials) +
      probe.warmup_us * d(seed_warmups);
  return mutate_seconds + us * 1e-6;
}

void fill_fuzz_layers(std::map<std::string, double>& metrics,
                      const ProbeResult& probe, const FuzzCounters& window,
                      const TimedStrategy& timed,
                      const std::vector<double>& kept_stream_seconds,
                      double worker_seconds) {
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::uint64_t mutate_calls = timed.calls();
  metrics["hdc.encode_delta_us"] = probe.encode_delta_us;
  metrics["hdc.delta_pixels"] = probe.delta_pixels;
  metrics["hdc.encode_full_us"] = probe.encode_full_us;
  metrics["hdc.am_sweep_us"] = probe.sweep_us;
  metrics["fuzz.mutate_us"] = ratio(1e6 * timed.seconds(), d(mutate_calls));
  metrics["fuzz.perturb_us"] = probe.perturb_us;
  metrics["fuzz.select_us"] = probe.select_us;
  metrics["fuzz.seed_warmup_us"] = probe.warmup_us;
  metrics["fuzz.stream_p50_ms"] = 1e3 * quantile(kept_stream_seconds, 0.50);
  metrics["fuzz.stream_p99_ms"] = 1e3 * quantile(kept_stream_seconds, 0.99);
  metrics["fuzz.iters_per_stream"] = ratio(d(window.iterations), d(window.streams));
  metrics["fuzz.success_rate"] = ratio(d(window.adversarials), d(window.streams));
  metrics["fuzz.discard_ratio"] = ratio(d(window.discarded), d(mutate_calls));
  metrics["fuzz.us_per_query"] = ratio(1e6 * worker_seconds, d(window.mutants));
  metrics["probe.replay_match"] = probe.replay_match;
  metrics["probe.generations"] = d(probe.generations);
}

}  // namespace perfbench
