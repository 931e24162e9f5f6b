#include "fuzz/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#include "fuzz/shard/runtime.hpp"
#include "util/log.hpp"

namespace hdtest::fuzz {

void CampaignConfig::validate() const {
  fuzz.validate();
  if (workers == 0) {
    throw std::invalid_argument("CampaignConfig: workers must be >= 1");
  }
  if (max_streams != 0 && max_streams < target_adversarials) {
    // Each stream yields at most one adversarial, so such a campaign could
    // only ever give up — reject the configuration outright.
    throw std::invalid_argument(
        "CampaignConfig: max_streams must be 0 or >= target_adversarials");
  }
}

std::size_t CampaignResult::successes() const noexcept {
  std::size_t count = 0;
  for (const auto& r : records) count += r.outcome.success;
  return count;
}

double CampaignResult::success_rate() const noexcept {
  return records.empty()
             ? 0.0
             : static_cast<double>(successes()) /
                   static_cast<double>(records.size());
}

double CampaignResult::avg_iterations() const noexcept {
  if (records.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& r : records) total += r.outcome.iterations;
  return static_cast<double>(total) / static_cast<double>(records.size());
}

double CampaignResult::avg_l1() const noexcept {
  util::RunningStats stats;
  for (const auto& r : records) {
    if (r.outcome.success) stats.add(r.outcome.perturbation.l1);
  }
  return stats.mean();
}

double CampaignResult::avg_l2() const noexcept {
  util::RunningStats stats;
  for (const auto& r : records) {
    if (r.outcome.success) stats.add(r.outcome.perturbation.l2);
  }
  return stats.mean();
}

double CampaignResult::avg_pixels_changed() const noexcept {
  util::RunningStats stats;
  for (const auto& r : records) {
    if (r.outcome.success) {
      stats.add(static_cast<double>(r.outcome.perturbation.pixels_changed));
    }
  }
  return stats.mean();
}

std::size_t CampaignResult::total_encodes() const noexcept {
  std::size_t total = 0;
  for (const auto& r : records) total += r.outcome.encodes;
  return total;
}

double CampaignResult::time_per_1k_seconds() const noexcept {
  const auto wins = successes();
  if (wins == 0) return 0.0;
  return total_seconds * 1000.0 / static_cast<double>(wins);
}

double CampaignResult::adversarials_per_minute() const noexcept {
  if (total_seconds <= 0.0) return 0.0;
  return static_cast<double>(successes()) * 60.0 / total_seconds;
}

std::vector<CampaignResult::PerClass> CampaignResult::per_class(
    std::size_t num_classes) const {
  std::vector<PerClass> out(num_classes);
  for (const auto& r : records) {
    if (r.true_label < 0 ||
        static_cast<std::size_t>(r.true_label) >= num_classes) {
      continue;
    }
    auto& slot = out[static_cast<std::size_t>(r.true_label)];
    ++slot.attempts;
    slot.iterations.add(static_cast<double>(r.outcome.iterations));
    if (r.outcome.success) {
      ++slot.successes;
      slot.l1.add(r.outcome.perturbation.l1);
      slot.l2.add(r.outcome.perturbation.l2);
    }
  }
  return out;
}

namespace {

template <typename T>
std::string to_text(T value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    // Round-trip precision: two doubles that differ print differently.
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
  } else {
    return std::to_string(value);
  }
}

/// First field of one record pair that differs (stream left at 0).
std::optional<RecordDivergence> record_divergence(const CampaignRecord& e,
                                                  const CampaignRecord& a) {
  std::optional<RecordDivergence> found;
  const auto check = [&found](const char* field, auto want, auto got) {
    if (!found && want != got) {
      found = RecordDivergence{0, field, to_text(want), to_text(got)};
    }
  };
  const auto& eo = e.outcome;
  const auto& ao = a.outcome;
  check("image_index", e.image_index, a.image_index);
  check("true_label", e.true_label, a.true_label);
  check("success", eo.success, ao.success);
  check("reference_label", eo.reference_label, ao.reference_label);
  check("iterations", eo.iterations, ao.iterations);
  check("encodes", eo.encodes, ao.encodes);
  check("discarded", eo.discarded, ao.discarded);
  if (found || !eo.success) return found;

  const auto& ei = eo.adversarial;
  const auto& ai = ao.adversarial;
  if (ei.width() != ai.width() || ei.height() != ai.height()) {
    return RecordDivergence{
        0, "adversarial.shape",
        to_text(ei.width()) + "x" + to_text(ei.height()),
        to_text(ai.width()) + "x" + to_text(ai.height())};
  }
  const auto ep = ei.pixels();
  const auto ap = ai.pixels();
  const auto pixel = std::mismatch(ep.begin(), ep.end(), ap.begin());
  if (pixel.first != ep.end()) {
    return RecordDivergence{
        0, "adversarial.pixel[" + to_text(pixel.first - ep.begin()) + "]",
        to_text(int{*pixel.first}), to_text(int{*pixel.second})};
  }
  check("adversarial_label", eo.adversarial_label, ao.adversarial_label);
  check("perturbation.l1", eo.perturbation.l1, ao.perturbation.l1);
  check("perturbation.l2", eo.perturbation.l2, ao.perturbation.l2);
  check("perturbation.linf", eo.perturbation.linf, ao.perturbation.linf);
  check("perturbation.pixels_changed", eo.perturbation.pixels_changed,
        ao.perturbation.pixels_changed);
  return found;
}

}  // namespace

std::string RecordDivergence::describe() const {
  return "stream " + to_text(stream) + ", field " + field + ": expected " +
         expected + ", actual " + actual;
}

std::optional<RecordDivergence> first_divergence(
    const CampaignResult& expected, const CampaignResult& actual) {
  const std::size_t shared =
      std::min(expected.records.size(), actual.records.size());
  for (std::size_t i = 0; i < shared; ++i) {
    auto found = record_divergence(expected.records[i], actual.records[i]);
    if (found) {
      found->stream = i;
      return found;
    }
  }
  if (expected.records.size() != actual.records.size()) {
    return RecordDivergence{shared, "record_count",
                            to_text(expected.records.size()),
                            to_text(actual.records.size())};
  }
  if (expected.gave_up != actual.gave_up) {
    return RecordDivergence{shared, "gave_up", to_text(expected.gave_up),
                            to_text(actual.gave_up)};
  }
  return std::nullopt;
}

CampaignResult run_campaign(const Fuzzer& fuzzer, const data::Dataset& inputs,
                            const CampaignConfig& config) {
  config.validate();
  if (inputs.empty()) {
    throw std::invalid_argument("run_campaign: empty input set");
  }

  // Both campaign modes run on the sharded work-stealing runtime: the
  // planner fixes per-stream inputs/seeds up front and the ledger replays
  // the sequential stopping rule over canonical stream order, so any worker
  // count produces bit-identical records (src/fuzz/shard/).
  shard::CampaignRuntime runtime(config.workers);
  CampaignResult result = runtime.run(fuzzer, inputs, config);
  if (result.gave_up) {
    util::log_warn("run_campaign: gave up before reaching target (",
                   result.successes(), "/", config.target_adversarials, ")");
  }
  util::log_info("campaign[", result.strategy_name, "]: ",
                 result.successes(), "/", result.images_fuzzed(),
                 " adversarial, avg_iter=", result.avg_iterations(),
                 ", time=", result.total_seconds, "s");
  return result;
}

}  // namespace hdtest::fuzz
