#pragma once
/// \file campaign.hpp
/// Multi-image fuzzing campaigns and the aggregate metrics of the paper's
/// evaluation (section V-A):
///
///  - Avg. normalized L1/L2 distance over generated adversarial images;
///  - Avg. #iterations = total fuzzing iterations / #images fuzzed;
///  - execution time to generate K adversarial images (reported per-1K);
///  - per-class breakdowns (Fig. 7).
///
/// Campaigns run on the sharded work-stealing runtime (src/fuzz/shard/):
/// both modes — the fixed sweep AND the paper's "generate K adversarials"
/// target-count mode — scale across workers with deterministic per-stream
/// RNG seeds and a canonical-stream-order merge, so results are
/// bit-identical for any worker count (see shard/runtime.hpp for the
/// contract).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "fuzz/fuzzer.hpp"
#include "util/stats.hpp"

namespace hdtest::fuzz {

/// Campaign-level options on top of the per-input FuzzConfig.
struct CampaignConfig {
  FuzzConfig fuzz;

  /// Stop after this many adversarial images (0 = fuzz every input once).
  /// When the input set is exhausted first, it wraps around with fresh
  /// mutation streams, mirroring the paper's "generate 1000 images" runs.
  std::size_t target_adversarials = 0;

  /// Upper bound on inputs fuzzed (0 = no bound). Applies only when
  /// target_adversarials == 0.
  std::size_t max_images = 0;

  /// Worker threads (1 = sequential; results identical either way).
  std::size_t workers = 1;

  /// Master seed for all mutation randomness.
  std::uint64_t seed = 0x5eedULL;

  /// Give-up valve for target-count mode: the campaign stops with
  /// `gave_up = true` after exactly this many mutation streams (inputs
  /// fuzzed, counting wrap-around revisits) without reaching the target.
  /// 0 = the legacy formula `target*1000 + inputs*100` (+1 stream, matching
  /// the historical off-by-one). Ignored when target_adversarials == 0.
  std::size_t max_streams = 0;

  /// Streams per shard slice — the work-stealing unit handed to one worker
  /// at a time (0 = auto: 1 in sweep mode, 4 in target mode). Affects
  /// scheduling granularity only, never results.
  std::size_t shard_block = 0;

  void validate() const;
};

/// Per-input record: the outcome plus the true label when the dataset has
/// one (used only for per-class reporting, never by the fuzzer itself —
/// HDTest is label-free).
struct CampaignRecord {
  std::size_t image_index = 0;
  int true_label = -1;
  FuzzOutcome outcome;
};

/// Aggregated campaign results.
struct CampaignResult {
  std::vector<CampaignRecord> records;
  double total_seconds = 0.0;
  std::string strategy_name;

  /// True when target-count mode hit its safety valve and stopped before
  /// reaching target_adversarials. Callers that feed the successes into a
  /// downstream stage (e.g. the retraining defense) must check this instead
  /// of silently consuming a short (possibly empty) pool.
  bool gave_up = false;

  [[nodiscard]] std::size_t images_fuzzed() const noexcept {
    return records.size();
  }
  [[nodiscard]] std::size_t successes() const noexcept;
  [[nodiscard]] double success_rate() const noexcept;

  /// Paper metric: total iterations / #images fuzzed.
  [[nodiscard]] double avg_iterations() const noexcept;

  /// Mean normalized L1/L2 over successful (adversarial) records.
  [[nodiscard]] double avg_l1() const noexcept;
  [[nodiscard]] double avg_l2() const noexcept;

  /// Mean pixels changed over successes.
  [[nodiscard]] double avg_pixels_changed() const noexcept;

  /// Total model queries (encodes) spent.
  [[nodiscard]] std::size_t total_encodes() const noexcept;

  /// Wall time extrapolated to 1000 adversarial images (paper Table II's
  /// "Time Per-1K Gen. Img."); 0 when there were no successes.
  [[nodiscard]] double time_per_1k_seconds() const noexcept;

  /// Adversarial images per minute (paper's headline "~400 per minute").
  [[nodiscard]] double adversarials_per_minute() const noexcept;

  /// Per-class aggregation keyed by *true* label (Fig. 7). Classes with no
  /// data report zeroed stats. \p num_classes sizes the result.
  struct PerClass {
    util::RunningStats l1;
    util::RunningStats l2;
    util::RunningStats iterations;
    std::size_t attempts = 0;
    std::size_t successes = 0;
  };
  [[nodiscard]] std::vector<PerClass> per_class(std::size_t num_classes) const;
};

/// Runs \p fuzzer over the images of \p inputs (labels, when present, are
/// used only for reporting) on a shard::CampaignRuntime with
/// config.workers workers. Records (indices, outcomes, gave_up) are
/// bit-identical for any worker count; only the wall-clock fields vary.
[[nodiscard]] CampaignResult run_campaign(const Fuzzer& fuzzer,
                                          const data::Dataset& inputs,
                                          const CampaignConfig& config);

/// The first field on which two campaign results disagree.
struct RecordDivergence {
  /// Record index in canonical stream order. For "record_count" and
  /// "gave_up" it is the number of records the two results share.
  std::size_t stream = 0;
  /// Record field ("iterations", "perturbation.l2", "adversarial.pixel[17]",
  /// ...) or result field ("record_count", "gave_up").
  std::string field;
  std::string expected;  ///< value in the reference result
  std::string actual;    ///< value in the result under test

  /// One line: "stream 12, field iterations: expected 5, actual 7".
  [[nodiscard]] std::string describe() const;
};

/// The shard determinism contract: compares every non-wall-clock field —
/// per record, the input index, true label, and the complete outcome
/// (success, labels, iterations, encodes, discarded, the adversarial image
/// bytes, and all perturbation components), then the record count and
/// gave_up. Returns nothing when the results agree, else the first
/// mismatch. The determinism suites and the bench gates share this single
/// definition, and print its report when a gate fails.
[[nodiscard]] std::optional<RecordDivergence> first_divergence(
    const CampaignResult& expected, const CampaignResult& actual);

/// True iff first_divergence finds nothing.
[[nodiscard]] inline bool identical_records(const CampaignResult& a,
                                            const CampaignResult& b) {
  return !first_divergence(a, b).has_value();
}

}  // namespace hdtest::fuzz
