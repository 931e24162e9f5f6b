#include "common.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <utility>

#include "data/synthetic_digits.hpp"
#include "util/rng.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  std::printf("CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

std::uint64_t derive_seed(std::uint64_t seed, SeedRole role,
                          std::uint64_t index) {
  const auto base = hdtest::util::Rng::stream_seed(
      seed, static_cast<std::uint64_t>(role));
  return hdtest::util::Rng::stream_seed(base, index);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  auto index = static_cast<std::size_t>(std::ceil(rank));
  index = std::clamp<std::size_t>(index, 1, values.size());
  return values[index - 1];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

void reset_peak_rss() {
  // Hand freed heap back first, so the window starts from live memory and
  // not from whatever the allocator kept after earlier operations.
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::uint64_t records_digest(const hdtest::fuzz::CampaignResult& result) {
  Fnv1a h;
  h.u64(result.gave_up ? 1 : 0);
  h.u64(result.records.size());
  for (const auto& record : result.records) {
    const auto& o = record.outcome;
    h.u64(record.image_index);
    h.u64(static_cast<std::uint64_t>(record.true_label));
    h.u64(o.success ? 1 : 0);
    h.u64(o.reference_label);
    h.u64(o.adversarial_label);
    h.u64(o.iterations);
    h.u64(o.encodes);
    h.u64(o.discarded);
    h.f64(o.perturbation.l1);
    h.f64(o.perturbation.l2);
    h.f64(o.perturbation.linf);
    h.u64(o.perturbation.pixels_changed);
    const auto pixels = o.adversarial.pixels();
    h.u64(pixels.size());
    h.bytes(pixels.data(), pixels.size());
  }
  return h.value();
}

Substrate build_substrate(std::uint64_t seed, std::size_t dim, DataSize size) {
  Substrate s;
  s.train = hdtest::data::make_digit_dataset(
      size.train_per_class, derive_seed(seed, SeedRole::kData, 0));
  for (std::size_t k = 0; k < size.input_sets; ++k) {
    s.inputs.push_back(hdtest::data::make_digit_dataset(
        size.test_per_class, derive_seed(seed, SeedRole::kData, k + 1)));
  }
  hdtest::hdc::ModelConfig config;
  config.dim = dim;
  config.seed = derive_seed(seed, SeedRole::kModel);
  s.model = std::make_unique<hdtest::hdc::HdcClassifier>(config, 28, 28, 10);
  s.model->fit(s.train, kWorkers);
  return s;
}

Substrate timed_substrate(std::uint64_t seed, std::size_t dim, DataSize size,
                          std::size_t reps, double& setup_s) {
  std::vector<double> times;
  Substrate s;
  for (std::size_t r = 0; r < reps; ++r) {
    const double start = now_s();
    Substrate fresh = build_substrate(seed, dim, size);
    times.push_back(now_s() - start);
    s = std::move(fresh);
  }
  setup_s = median(times);
  return s;
}

void CampaignTally::fill_end_to_end(Report& report, double setup_s) const {
  const double per_query = median(seconds_per_query);
  const double queries_per_adv = queries / kept;
  auto& m = report.metrics;
  m["adv_per_min"] = 60.0 / (queries_per_adv * per_query);
  m["queries_per_adv"] = queries_per_adv;
  m["avg_l2"] = l2_sum / kept;
  m["queries_per_s"] = 1.0 / per_query;
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = median(peak_rss);
}

}  // namespace perfbench
