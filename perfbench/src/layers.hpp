#pragma once
/// \file layers.hpp
/// Per-layer measurement from outside the program: decorators around the
/// two injection points the library exposes (MutationStrategy,
/// SliceExecutor), a drain of the spans the library already opens, registry
/// counter deltas, and the generation probe that times the steps inside
/// fuzz_one which cannot be wrapped.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/worker.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/mutation.hpp"
#include "fuzz/shard/plan.hpp"
#include "hdc/encoder.hpp"

namespace perfbench {

/// Forwards name() and mutate() to a wrapped strategy and sums mutate()
/// time per thread. Records one slot per thread, never one event per call.
class TimedStrategy final : public hdtest::fuzz::MutationStrategy {
 public:
  explicit TimedStrategy(const hdtest::fuzz::MutationStrategy& inner);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] hdtest::data::Image mutate(const hdtest::data::Image& seed,
                                           hdtest::util::Rng& rng) const override;

  /// Sum over all threads so far.
  [[nodiscard]] std::uint64_t calls() const;
  [[nodiscard]] double seconds() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  [[nodiscard]] Slot& local_slot() const;

  const hdtest::fuzz::MutationStrategy* inner_;
  std::uint64_t id_;  ///< distinguishes instances in the thread-local cache
  mutable std::mutex mutex_;
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

/// Registry counters of one strategy's fuzz loop and of the shard runtime,
/// or the same fuzz-loop tallies summed from stream records.
struct FuzzCounters {
  std::uint64_t streams = 0;
  std::uint64_t mutants = 0;  ///< model queries (encodes)
  std::uint64_t adversarials = 0;
  std::uint64_t discarded = 0;
  std::uint64_t iterations = 0;
  std::uint64_t slices = 0;
  std::uint64_t stop_cuts = 0;

  [[nodiscard]] static FuzzCounters read(const std::string& strategy);
  /// Adds one stream's outcome, as the fuzz loop's own counters do.
  void add(const hdtest::fuzz::FuzzOutcome& outcome);
  [[nodiscard]] FuzzCounters operator-(const FuzzCounters& base) const;
  FuzzCounters& operator+=(const FuzzCounters& more);
};

/// Counts the slices a wrapped slice executor runs, tallies the outcomes of
/// every stream it executes and, when \p timed, the time spent in
/// execute(). One SimFleet drives it from one thread, so plain fields
/// suffice.
class TimedExecutor final : public hdtest::fuzz::fleet::SliceExecutor {
 public:
  TimedExecutor(hdtest::fuzz::fleet::SliceExecutor& inner, bool timed)
      : inner_(&inner), timed_(timed) {}

  [[nodiscard]] std::vector<hdtest::fuzz::CampaignRecord> execute(
      const hdtest::fuzz::shard::StreamSlice& slice) override;

  double seconds = 0.0;
  std::size_t slices = 0;
  FuzzCounters counts;  ///< every executed stream, wasted ones included

 private:
  hdtest::fuzz::fleet::SliceExecutor* inner_;
  bool timed_;
};

/// Totals of the library's own spans, drained from obs::global_trace_ring.
struct SpanTally {
  std::map<std::string, std::size_t> count;
  std::map<std::string, double> seconds;
  std::uint64_t dropped = 0;       ///< events the ring lost while tracing
  std::uint64_t dropped_base = 0;  ///< ring drop count when tracing began

  /// Empties the global ring into this tally.
  void drain();
};

/// Prepares a traced phase: clears the ring and records its drop count so
/// far. Spans stay off until trace_spans(true).
void begin_tracing(SpanTally& tally);
/// Turns the library's spans on or off (a process-wide switch).
void trace_spans(bool on);
/// Ends the traced phase: spans off, and what is left drained.
void end_tracing(SpanTally& tally);

/// Mean per-call costs measured by replaying a seeded sample of a
/// campaign's own generations through the public pieces of fuzz_one.
struct ProbeResult {
  double encode_delta_us = 0.0;  ///< per encode_mutant_packed
  double delta_pixels = 0.0;     ///< changed pixels per delta encode
  double perturb_us = 0.0;       ///< per measure_perturbation
  double sweep_us = 0.0;         ///< per predict_block generation
  double select_us = 0.0;        ///< per keep_fittest
  double encode_full_us = 0.0;   ///< per encode_packed
  double warmup_us = 0.0;        ///< per Fuzzer::prepare_seed
  std::size_t streams = 0;       ///< streams replayed
  std::size_t generations = 0;   ///< generations replayed
  /// Share of replayed streams whose outcome (counts, and the adversarial
  /// and its label on success) equals the campaign record of the same
  /// stream: 1 when the replay follows fuzz_one exactly.
  double replay_match = 0.0;
};

/// The layer probe: replays streams 0, 1, ... of \p planner's campaign with
/// \p fuzzer's strategy and config, timing each library call. \p records
/// are that campaign's records in stream order; every replayed stream is
/// compared with its record, and the replay wraps to stream 0 after the
/// last record. run() may be called between the workload's operations, so
/// the probe samples the same machine state as the operations it explains.
class GenerationProbe {
 public:
  GenerationProbe(const hdtest::fuzz::Fuzzer& fuzzer,
                  const hdtest::hdc::HdcClassifier& model,
                  const hdtest::data::Dataset& inputs,
                  const hdtest::fuzz::shard::ShardPlanner& planner,
                  std::vector<hdtest::fuzz::CampaignRecord> records);

  /// Replays whole streams until at least \p generations more ran.
  void run(std::size_t generations);

  [[nodiscard]] ProbeResult result() const;

 private:
  void replay_stream(std::size_t s);

  const hdtest::fuzz::Fuzzer* fuzzer_;
  const hdtest::hdc::HdcClassifier* model_;
  const hdtest::data::Dataset* inputs_;
  hdtest::fuzz::shard::ShardPlanner planner_;
  std::vector<hdtest::fuzz::CampaignRecord> records_;
  hdtest::hdc::IncrementalPixelEncoder delta_encoder_;
  std::size_t next_stream_ = 0;
  // Summed seconds and call counts.
  double t_delta_ = 0, t_perturb_ = 0, t_sweep_ = 0, t_select_ = 0,
         t_full_ = 0, t_warm_ = 0;
  std::size_t n_delta_ = 0, n_perturb_ = 0, n_select_ = 0, pixels_ = 0,
              streams_ = 0, generations_ = 0, matches_ = 0;
};

/// Fails \p report unless the probe replayed generations and every
/// replayed stream matched its campaign record: a probe that no longer
/// follows fuzz_one would describe a loop the program does not run.
void check_probe(const ProbeResult& probe, Report& report);

/// Worker-seconds the probe explains for a window of fuzz work: delta
/// encodes, perturbation checks, sweeps and selections scaled by the
/// window's exact counters, plus measured mutate time and \p seed_warmups
/// prepare_seed calls.
[[nodiscard]] double attributed_fuzz_seconds(const ProbeResult& probe,
                                             const FuzzCounters& window,
                                             std::uint64_t mutate_calls,
                                             double mutate_seconds,
                                             std::size_t seed_warmups);

/// Fills the fuzz.* and hdc.* per-layer metrics shared by the campaign and
/// fleet workloads.
void fill_fuzz_layers(std::map<std::string, double>& metrics,
                      const ProbeResult& probe, const FuzzCounters& window,
                      const TimedStrategy& timed,
                      const std::vector<double>& kept_stream_seconds,
                      double worker_seconds);

}  // namespace perfbench
