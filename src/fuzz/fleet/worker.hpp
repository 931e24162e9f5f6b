#pragma once
/// \file worker.hpp
/// Deterministic, transport-agnostic fleet worker (sans-io core).
///
/// Mirror image of CoordinatorCore: the driver feeds it validated frames
/// and it answers with frames to send. The worker is a strict
/// request/response loop — Hello, then LeaseRequest, then Commit per
/// granted slice — so its only liveness obligation is "resend the last
/// request when the reply is overdue" (on_retry_tick, paced by the
/// driver's BackoffPolicy). Every message can be lost, duplicated, or
/// reordered without corrupting state: duplicates of a reply it already
/// consumed are ignored — a CommitAck must name the lease being committed,
/// and a late copy of the grant it last executed is dropped — and a resent
/// request is idempotent on the coordinator side. A connection holds at
/// most one lease, so a repeated LeaseRequest gets the same grant back
/// instead of a second block, and duplicate commits are acked without
/// merging.
///
/// Slice execution is injected (SliceExecutor) so protocol tests run with
/// a synthetic executor while production uses FuzzSliceExecutor, which
/// reproduces the sharded runtime's per-stream recipe exactly: input
/// `s % num_inputs`, RNG from `stream_seed(master, s)`, outcome from
/// Fuzzer::fuzz_one. Workers always execute their full leased slice —
/// they hold no StopToken; the coordinator's ledger discards overshoot,
/// which is exactly what the solo runtime does with speculative work. The
/// overshoot is bounded: no block is leased at or past the ledger's
/// provable cut, so past the cut a worker runs at most the slices it was
/// leased before the cut was known — measured at under one block per
/// worker on fault-free schedules, and held under cut + block x
/// (3 x workers + faults) by the fleet sim tests.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.hpp"
#include "fuzz/campaign.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/wire.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/seed_bank.hpp"
#include "fuzz/telemetry.hpp"

namespace hdtest::fuzz::fleet {

/// Executes one leased slice and returns its records in stream order.
class SliceExecutor {
 public:
  virtual ~SliceExecutor() = default;
  [[nodiscard]] virtual std::vector<CampaignRecord> execute(
      const shard::StreamSlice& slice) = 0;
};

/// Production executor: the sharded runtime's per-stream recipe.
class FuzzSliceExecutor final : public SliceExecutor {
 public:
  /// All borrowed; must outlive the executor. \p bank may be null (inline
  /// encoding — identical results either way, see SeedBank::acquire).
  FuzzSliceExecutor(const shard::ShardPlanner& planner, const Fuzzer& fuzzer,
                    const data::Dataset& inputs,
                    shard::SeedBank* bank = nullptr) noexcept
      : planner_(&planner), fuzzer_(&fuzzer), inputs_(&inputs), bank_(bank) {}

  [[nodiscard]] std::vector<CampaignRecord> execute(
      const shard::StreamSlice& slice) override;

 private:
  const shard::ShardPlanner* planner_;
  const Fuzzer* fuzzer_;
  const data::Dataset* inputs_;
  shard::SeedBank* bank_;
  /// Per-strategy counters, resolved lazily on the first slice (execute is
  /// per-lease, well off the per-mutant hot loop).
  FuzzTally tally_;
};

/// See the file comment. Single-threaded; drivers serialize all calls.
class WorkerCore {
 public:
  enum class State : std::uint8_t {
    kAwaitHelloAck,
    kAwaitGrant,
    kAwaitCommitAck,
    kDone,    ///< coordinator sent Shutdown — clean exit
    kFailed,  ///< coordinator rejected us — fatal
  };

  /// \param fingerprint this worker's campaign_fingerprint (must match the
  ///        coordinator's or the Hello is rejected).
  /// \param executor    borrowed; must outlive the core.
  WorkerCore(std::uint64_t fingerprint, SliceExecutor& executor) noexcept
      : fingerprint_(fingerprint), executor_(&executor) {}

  /// The opening frame. Also (re)arms it as the pending request.
  [[nodiscard]] Frame hello();

  /// Consumes one validated frame; returns the frames to send in response
  /// (possibly none). Frames that do not answer the pending request —
  /// duplicates, stale replies after a reconnect — are ignored.
  [[nodiscard]] std::vector<Frame> on_frame(const Frame& frame);

  /// The reply to the pending request is overdue: returns a copy of that
  /// request to resend, or nullopt when nothing is outstanding.
  [[nodiscard]] std::optional<Frame> on_retry_tick();

  /// Reset to the Hello handshake after a reconnect (TCP driver). Keeps
  /// no lease state: whatever was in flight will expire server-side.
  [[nodiscard]] Frame on_reconnect();

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool done() const noexcept {
    return state_ == State::kDone || state_ == State::kFailed;
  }
  [[nodiscard]] bool failed() const noexcept {
    return state_ == State::kFailed;
  }
  [[nodiscard]] std::uint64_t worker_id() const noexcept { return worker_id_; }
  [[nodiscard]] std::size_t slices_executed() const noexcept {
    return slices_executed_;
  }

  // ---- health reporting ----------------------------------------------------

  /// True once heartbeats make sense: the handshake assigned a worker id
  /// and the campaign is still running. Drivers gate emission on this (and
  /// on obs::enabled()).
  [[nodiscard]] bool heartbeat_ready() const noexcept {
    return worker_id_ != 0 && !done();
  }

  /// One-way health report with the cumulative tallies. Deliberately does
  /// NOT arm pending_: a heartbeat expects no reply, is never resent, and
  /// must not disturb the request/response loop.
  [[nodiscard]] Frame heartbeat() const;

 private:
  [[nodiscard]] std::vector<Frame> request(Frame frame);

  std::uint64_t fingerprint_;
  SliceExecutor* executor_;
  State state_ = State::kAwaitHelloAck;
  std::optional<Frame> pending_;  ///< last request awaiting its reply
  std::uint64_t worker_id_ = 0;
  std::size_t slices_executed_ = 0;
  std::uint64_t current_lease_ = 0;  ///< lease being executed/committed
  std::uint64_t executed_lease_ = 0;  ///< newest lease executed (0 = none)
  std::uint64_t streams_done_ = 0;
  std::uint64_t encodes_done_ = 0;
  std::uint64_t adversarials_ = 0;
};

}  // namespace hdtest::fuzz::fleet
