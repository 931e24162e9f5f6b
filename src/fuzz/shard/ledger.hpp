#pragma once
/// \file ledger.hpp
/// Canonical-stream-order progress ledger — the determinism heart of the
/// sharded campaign runtime.
///
/// Shards execute stream slices in any interleaving, but every record is
/// committed here keyed by its stream index. The ledger replays the
/// *sequential* stopping rule over the ordered stream: it consumes records
/// in stream order 0, 1, 2, ... as they become contiguous, counts
/// successes, and decides the cut — the exact number of records the
/// equivalent workers=1 campaign would have produced. Records at or past
/// the cut (speculative overshoot) are discarded, so the merged record
/// vector is bit-identical for any worker count.
///
/// Stopping rule (target mode), replayed per consumed record:
///   - stop *before* a record once successes >= target (the sequential
///     while-condition);
///   - give up at stream_limit records when the target was not reached
///     (the safety valve; CampaignConfig::max_streams).
/// Sweep mode (target == 0) simply cuts at stream_limit and never gives up.

#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/shard/stop_token.hpp"

namespace hdtest::fuzz::shard {

/// Thread-safe ordered merge + stopping-rule replay (see file comment).
class ProgressLedger {
 public:
  /// \param target       successes to stop at (0 = sweep: run all streams).
  /// \param stream_limit exclusive stream bound (give-up valve / sweep size).
  /// \param stop         token to lower once the cut is decided (may be null).
  ProgressLedger(std::size_t target, std::size_t stream_limit,
                 StopToken* stop) noexcept
      : target_(target), limit_(stream_limit), stop_(stop) {}

  ProgressLedger(const ProgressLedger&) = delete;
  ProgressLedger& operator=(const ProgressLedger&) = delete;

  /// Commits one executed slice: \p records holds the outcomes of streams
  /// [first_stream, first_stream + records.size()), in stream order. A
  /// slice truncated by the StopToken is fine — truncation only happens at
  /// or past the final cut. Advances the canonical replay as far as the
  /// committed prefix allows.
  void commit(std::size_t first_stream, std::vector<CampaignRecord> records);

  /// True once the cut is decided (every record below it is merged).
  [[nodiscard]] bool finished() const;

  /// The number of records the campaign keeps. \pre finished().
  [[nodiscard]] std::size_t cut() const;

  /// Whether the valve fired before the target was reached. \pre finished().
  [[nodiscard]] bool gave_up() const;

  /// Exclusive bound on the streams the campaign can still keep: one past
  /// the target-th known success, counting the merged prefix plus the
  /// pending out-of-order slices. Successes still missing from the gaps
  /// can only move the cut earlier, so no stream at or past the bound is
  /// ever kept. cut() once decided; stream_limit in sweep mode or while
  /// fewer than target successes are known.
  [[nodiscard]] std::size_t useful_bound() const;

  /// Moves out the ordered records [0, cut). \pre finished().
  [[nodiscard]] std::vector<CampaignRecord> take_records();

  /// Everything committed so far, as (first_stream -> records) chunks:
  /// the contiguous merged prefix as one chunk at stream 0 plus the
  /// pending out-of-order slices. Re-committing the chunks into a fresh
  /// ledger (in any order) reproduces this ledger's replay state exactly —
  /// the checkpoint serialization primitive (fuzz/fleet/durable/).
  struct Snapshot {
    std::vector<CampaignRecord> ordered;
    std::map<std::size_t, std::vector<CampaignRecord>> pending;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Force-decides the cut at the current replay frontier — the drain path
  /// for a coordinator told to stop (e.g. SIGTERM) before the stopping rule
  /// fires naturally. Everything already merged is kept, in-flight work is
  /// dropped, and the result reports gave_up. No-op once decided.
  void abandon();

 private:
  void advance_locked();
  void decide_locked(std::size_t cut, bool gave_up);

  const std::size_t target_;
  const std::size_t limit_;
  StopToken* const stop_;

  mutable std::mutex mutex_;
  /// Committed slices not yet contiguous with the replay front.
  std::map<std::size_t, std::vector<CampaignRecord>> pending_;
  std::vector<CampaignRecord> ordered_;
  std::size_t scan_ = 0;  ///< next stream the replay needs
  std::size_t successes_ = 0;
  bool decided_ = false;
  bool gave_up_ = false;
  std::size_t cut_ = 0;
};

}  // namespace hdtest::fuzz::shard
