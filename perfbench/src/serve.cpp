// serve-mmap: a trained D=4096 model is saved as a v3 file (preparation,
// untimed), opened with MappedModel (checksum verified; the set-up time),
// then queried with predict_batch, 4 workers. No fuzz, shard or fleet code
// runs, in preparation or while timed.
//
// Batch shape: one predict_batch call per seeded input set, as the repo's
// own callers serve a whole test set per call (examples/quickstart.cpp,
// examples/vulnerability_audit.cpp, bench/throughput.cpp). An input set is
// seeded digits plus one noisy copy of each: per-pixel Gaussian noise drawn
// here from util::Rng and redrawn until its normalized L2 is at most 1.
// Serving a set is then the differential screen HDTest is built on: a copy
// whose served label differs from its digit's served label is an
// adversarial, which gives this workload the campaign metrics too.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "hdc/serialize.hpp"
#include "layers.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace hdc = hdtest::hdc;

namespace {

struct ServeSize {
  DataSize data;  ///< input_sets = distinct batches
  std::size_t dim = 0;
  std::size_t map_reps = 0;
  std::size_t probe_queries = 0;  ///< probed after each traced batch
};

ServeSize serve_size(const Options& options) {
  if (options.tiny) return {{10, 4, 2}, 1024, 3, 8};
  // 4 batches of 1000 digits + 1000 noisy copies; about 0.1 s per batch on
  // a 4-core box.
  return {{100, 100, 4}, 4096, 15, 40};
}

/// Noise standard deviation in gray levels. The copies sit near L2 = 0.42,
/// well within L2 <= 1, and about 40% of them change label on the D=4096
/// model, so the screen's counts are large on every seed.
constexpr double kNoiseStddev = 5.0;
constexpr double kMaxL2 = 1.0;

/// Normalized L2 distance, sqrt(sum ((a - b) / 255)^2).
double normalized_l2(const hdtest::data::Image& a,
                     const hdtest::data::Image& b) {
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  double sum = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const double delta = (static_cast<double>(pa[i]) - pb[i]) / 255.0;
    sum += delta * delta;
  }
  return std::sqrt(sum);
}

/// A copy of \p digit with seeded Gaussian pixel noise (clamped to
/// 0..255), redrawn until its normalized L2 from the digit is <= kMaxL2.
hdtest::data::Image noisy_copy(const hdtest::data::Image& digit,
                               hdtest::util::Rng& rng, double& l2) {
  for (;;) {
    hdtest::data::Image copy = digit;
    for (auto& pixel : copy.pixels()) {
      const double value = pixel + std::round(rng.gaussian(0.0, kNoiseStddev));
      pixel = static_cast<std::uint8_t>(std::clamp(value, 0.0, 255.0));
    }
    l2 = normalized_l2(digit, copy);
    if (l2 <= kMaxL2) return copy;
  }
}

/// One input set served by one predict_batch call: digits [0, n) and their
/// noisy copies [n, 2n), with the in-memory model's labels.
struct Batch {
  std::vector<hdtest::data::Image> images;
  std::vector<double> l2;  ///< of copy i (index n + i) from digit i
  std::vector<std::size_t> reference;
};

Batch make_batch(const hdtest::data::Dataset& digits, std::uint64_t seed,
                 const hdc::HdcClassifier& model) {
  Batch batch;
  batch.images = digits.images;
  hdtest::util::Rng rng(seed);
  for (const auto& digit : digits.images) {
    double l2 = 0.0;
    batch.images.push_back(noisy_copy(digit, rng, l2));
    batch.l2.push_back(l2);
  }
  batch.reference = model.predict_batch(batch.images, kWorkers);
  return batch;
}

}  // namespace

Report run_serve_workload(const Options& options) {
  ServeSize size = serve_size(options);
  if (options.dim != 0) size.dim = options.dim;
  Report report;

  // Preparation: train, save v3, build the input sets and their reference
  // labels on the in-memory model.
  const Substrate sub = build_substrate(options.seed, size.dim, size.data);
  const std::filesystem::path path =
      std::filesystem::path(options.work_dir) /
      ("serve-mmap-" + std::to_string(options.seed) + ".hdm");
  hdc::save_model(*sub.model, path.string());
  std::vector<Batch> batches;
  std::size_t flips = 0;
  double queries = 0.0, flip_l2 = 0.0;
  for (std::size_t k = 0; k < sub.inputs.size(); ++k) {
    batches.push_back(make_batch(
        sub.inputs[k], derive_seed(options.seed, SeedRole::kCorpus, k),
        *sub.model));
    const Batch& b = batches.back();
    const std::size_t n = b.l2.size();
    queries += static_cast<double>(b.images.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (b.reference[n + i] != b.reference[i]) {
        ++flips;
        flip_l2 += b.l2[i];
      }
    }
  }
  if (flips == 0) report.fail("no noisy copy changes its label");

  // Set-up: the verified map, several times; the median is setup_s.
  std::vector<double> map_times;
  std::optional<hdc::MappedModel> mapped;
  for (std::size_t r = 0; r < size.map_reps; ++r) {
    const double start = now_s();
    hdc::MappedModel fresh(path.string());
    map_times.push_back(now_s() - start);
    mapped.emplace(std::move(fresh));
  }
  const double setup_s = median(map_times);
  const std::size_t batch_size = batches[0].images.size();
  std::printf("serve-mmap: D=%zu, %zu input sets of %zu digits + %zu noisy "
              "copies (stddev %.0f), one predict_batch per set, %zu workers, "
              "map %.6f s, %zu of the copies change label\n",
              size.dim, batches.size(), batch_size / 2, batch_size / 2,
              kNoiseStddev, kWorkers, setup_s, flips);

  // One operation is one query; a batch's queries fail when their mapped
  // labels differ from the in-memory model's.
  const auto serve = [&](const Batch& batch, std::vector<double>& times,
                         std::vector<double>& rss) {
    report.attempted += batch.images.size();
    try {
      reset_peak_rss();
      const double start = now_s();
      const auto labels = mapped->predict_batch(batch.images, kWorkers);
      times.push_back(now_s() - start);
      rss.push_back(peak_rss_mb());
      std::size_t wrong = 0;
      for (std::size_t q = 0; q < labels.size(); ++q) {
        if (labels[q] != batch.reference[q]) ++wrong;
      }
      if (labels.size() != batch.images.size()) wrong = batch.images.size();
      if (wrong != 0) {
        report.fail(std::to_string(wrong) + " mapped labels differ from the "
                    "in-memory model");
        report.failed += wrong;
      }
    } catch (const std::exception& e) {
      report.fail(std::string("predict_batch: ") + e.what());
      report.failed += batch.images.size();
    }
  };
  const double deadline = now_s() + options.seconds;
  const auto keep_going = [&](std::size_t i) {
    return i < batches.size() + 1 || now_s() < deadline;
  };

  std::vector<double> batch_times, batch_rss;
  if (!options.trace) {
    for (std::size_t i = 0; keep_going(i); ++i) {
      serve(batches[i % batches.size()], batch_times, batch_rss);
    }
    const double qps = static_cast<double>(batch_size) / median(batch_times);
    auto& m = report.metrics;
    m["queries_per_s"] = qps;
    m["adv_per_min"] = 60.0 * qps * static_cast<double>(flips) / queries;
    m["queries_per_adv"] = queries / static_cast<double>(flips);
    m["avg_l2"] = flip_l2 / static_cast<double>(flips);
    m["setup_s"] = setup_s;
    m["peak_rss_mb"] = median(batch_rss);
    std::filesystem::remove(path);
    return report;
  }

  // The traced pass alternates traced and untraced batches: in pass c,
  // set k is served traced (spans on, then a probe) when k + c is odd, so
  // machine drift falls on both sides of trace.overhead and the probe
  // samples the same machine state as the batches it explains. The probe
  // encodes a rotating sample of the batch on one thread and sweeps it.
  std::vector<double> traced_times, traced_rss;
  SpanTally spans;
  begin_tracing(spans);
  double t_encode = 0.0, t_sweep = 0.0;
  std::size_t encodes = 0, offset = 0;
  for (std::size_t i = 0; keep_going(i); ++i) {
    const std::size_t k = i % batches.size();
    if ((k + i / batches.size()) % 2 == 0) {
      serve(batches[k], batch_times, batch_rss);
      continue;
    }
    trace_spans(true);
    serve(batches[k], traced_times, traced_rss);
    trace_spans(false);
    std::vector<hdc::PackedHv> hvs;
    for (std::size_t q = 0; q < size.probe_queries; ++q) {
      const auto& image = batches[k].images[(offset + q) % batch_size];
      const double start = now_s();
      hvs.push_back(mapped->encode_packed(image));
      t_encode += now_s() - start;
      ++encodes;
    }
    offset += size.probe_queries;
    const double start = now_s();
    const auto sweep = mapped->am().predict_block(hvs, 0);
    t_sweep += now_s() - start;
    (void)sweep;
  }
  end_tracing(spans);

  // Worker-microseconds per query of each probed layer.
  const double encode_us = 1e6 * t_encode / static_cast<double>(encodes);
  const double sweep_query_us = 1e6 * t_sweep / static_cast<double>(encodes);
  double traced_total = 0.0;
  for (const double t : traced_times) traced_total += t;
  const double worker_us = 1e6 * static_cast<double>(kWorkers) * traced_total;
  const double served =
      static_cast<double>(batch_size) * static_cast<double>(traced_times.size());

  auto& m = report.metrics;
  m["hdc.encode_full_us"] = encode_us;
  m["hdc.am_sweep_us"] = sweep_query_us * static_cast<double>(batch_size);
  m["serialize.map_ms"] = 1e3 * setup_s;
  m["serve.batch_p50_ms"] = 1e3 * quantile(traced_times, 0.50);
  m["serve.batch_p99_ms"] = 1e3 * quantile(traced_times, 0.99);
  m["serve.encode_share"] = encode_us * served / worker_us;
  m["campaign.unattributed_share"] =
      1.0 - (encode_us + sweep_query_us) * served / worker_us;
  m["trace.spans_dropped"] = static_cast<double>(spans.dropped);
  m["trace.overhead"] = median(traced_times) / median(batch_times) - 1.0;
  std::filesystem::remove(path);
  return report;
}

}  // namespace perfbench
