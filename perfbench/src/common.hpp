#pragma once
/// \file common.hpp
/// Shared pieces of the perfbench binary: run options, the metric map every
/// workload fills, seed derivation, clocks, order statistics, the records
/// digest, and the model substrate (synthetic digits + a fitted classifier).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "fuzz/campaign.hpp"
#include "hdc/classifier.hpp"

namespace perfbench {

/// Threads any workload may use (closed loop from one process).
inline constexpr std::size_t kWorkers = 4;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          ///< smoke-test sizes
  std::size_t dim = 0;        ///< 0 = the workload's own D
  std::string work_dir = "."; ///< scratch files (serve-mmap's model)
};

/// Result of one workload run: the op tally plus named values. Units live
/// in main.cpp's metric tables; a metric a workload does not fill reads 0.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;

  /// Records a failed check (prints the reason, marks the run incorrect).
  void fail(const std::string& why);
};

/// Every input derives from the workload seed through one of these roles.
enum class SeedRole : std::uint64_t {
  kData = 1,      ///< synthetic digits
  kModel = 2,     ///< model master seed (codebooks, tie-breaks)
  kCampaign = 3,  ///< campaign master seeds (+ campaign index)
  kFaults = 4,    ///< fleet network fault plan
  kDisk = 5,      ///< SimDisk torn-tail seed
  kCorpus = 6,    ///< serve-mmap query corpus
};
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, SeedRole role,
                                        std::uint64_t index = 0);

/// Monotonic seconds.
[[nodiscard]] double now_s();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Peak resident set of this process (VmHWM) since the last
/// reset_peak_rss(), MiB.
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap to the OS (glibc malloc_trim) and restarts the
/// peak-RSS window (Linux clear_refs "5"); the restart is a no-op where the
/// kernel refuses, leaving the window at process start.
void reset_peak_rss();

/// FNV-1a over every non-wall-clock field of a campaign result — the fields
/// fuzz::identical_records compares.
[[nodiscard]] std::uint64_t records_digest(
    const hdtest::fuzz::CampaignResult& result);

/// Synthetic digits plus a classifier fitted on them. inputs[k] is the
/// unlabeled input set campaign k fuzzes (or serve-mmap queries).
struct Substrate {
  hdtest::data::Dataset train;
  std::vector<hdtest::data::Dataset> inputs;
  std::unique_ptr<hdtest::hdc::HdcClassifier> model;
};

/// Digit data sizes of a workload.
struct DataSize {
  std::size_t train_per_class = 100;
  std::size_t test_per_class = 40;
  std::size_t input_sets = 1;
};

/// Synthesizes the digits and fits a D=\p dim model, all from \p seed.
[[nodiscard]] Substrate build_substrate(std::uint64_t seed, std::size_t dim,
                                        DataSize size);

/// Builds the substrate \p reps times; returns the last one and stores the
/// median build time in \p setup_s.
[[nodiscard]] Substrate timed_substrate(std::uint64_t seed, std::size_t dim,
                                        DataSize size, std::size_t reps,
                                        double& setup_s);

/// Timing and outcome tallies of the campaign workloads.
struct CampaignTally {
  /// Wall seconds per model query of every timed campaign.
  std::vector<double> seconds_per_query;
  /// Peak RSS (MiB) during each timed campaign.
  std::vector<double> peak_rss;
  // First pass only (a fixed set of campaigns per workload seed).
  double queries = 0.0;
  double kept = 0.0;
  double l2_sum = 0.0;

  /// adv_per_min = 60 / (queries_per_adv x median seconds per query);
  /// queries_per_s = 1 / median seconds per query; peak_rss_mb = median
  /// per-campaign peak.
  void fill_end_to_end(Report& report, double setup_s) const;
};

}  // namespace perfbench
