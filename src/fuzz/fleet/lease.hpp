#pragma once
/// \file lease.hpp
/// Slice lease bookkeeping for the fleet coordinator.
///
/// Every ShardPlanner block moves through pending -> leased -> done. A
/// lease carries a deadline (in the coordinator's injected tick domain —
/// never an ambient clock): when it passes, or when the owning connection
/// drops, the block returns to pending and is re-issued to the next worker
/// that asks.
///
/// Handout is idempotent and cut-aware:
///
///   - a connection holds at most one lease. A repeat request from a
///     connection that already holds one (a retried or duplicated
///     LeaseRequest) re-sends that lease — same id, same slice, same
///     deadline — instead of minting a second one. Minting would orphan
///     the first: the worker runs one slice at a time, so the orphan would
///     pin its block until the deadline while the merge frontier stalls;
///   - no block starting at or past the caller's stream bound (the
///     ledger's provable cut, ProgressLedger::useful_bound) is leased: no
///     stream there can be kept.
///
/// Because stream outcomes are pure functions of (config,
/// stream index), a block executed twice by different workers produces
/// byte-identical records, which is what makes the commit dispositions
/// below safe:
///
///   - a commit under a live lease with the exact planned (first, count)
///     shape is accepted;
///   - a commit whose lease is unknown (expired, or a prior incarnation of
///     a restarted coordinator) but whose shape exactly matches a block is
///     *stale-but-valid*: accepted if the block is still outstanding,
///     acknowledged-without-merge if it already completed (the duplicate
///     case — the ack is what lets a worker whose CommitAck was lost make
///     progress);
///   - anything whose shape does not match the plan is a mismatch: the
///     coordinator rejects it and the block is re-leased. Corruption is
///     retried, never merged.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "fuzz/shard/plan.hpp"

namespace hdtest::fuzz::fleet {

/// Identifies one transport connection (assigned by the driver).
using ConnId = std::uint64_t;

/// How a commit relates to the plan (see file comment).
enum class CommitDisposition : std::uint8_t {
  kAccept,     ///< merge into the ledger, acknowledge
  kDuplicate,  ///< already merged: acknowledge, do not merge again
  kMismatch,   ///< shape violates the plan: reject, re-lease
};

/// Lease lifecycle bookkeeping (not thread-safe; the coordinator core is
/// single-threaded by construction).
class LeaseTable {
 public:
  /// \param planner       the campaign's slice geometry (borrowed).
  /// \param timeout_ticks lease lifetime in the injected tick unit.
  LeaseTable(const shard::ShardPlanner& planner, std::uint64_t timeout_ticks);

  /// Re-sends the live lease \p conn already holds (resent = true; nothing
  /// changes), else leases the lowest pending block to \p conn. Returns
  /// nullopt when that block starts at or past \p stream_bound, or when
  /// every block is leased or done.
  struct Grant {
    std::uint64_t lease_id = 0;
    shard::StreamSlice slice;
    bool resent = false;
  };
  [[nodiscard]] std::optional<Grant> grant(ConnId conn, std::uint64_t now,
                                           std::size_t stream_bound);

  /// Returns expired leases' blocks to pending. Result: re-issued count.
  std::size_t expire(std::uint64_t now);

  /// Returns \p conn's leased blocks to pending (disconnect/corruption).
  /// Result: re-issued count.
  std::size_t revoke(ConnId conn);

  /// Classifies a commit claiming lease \p lease_id over streams
  /// [\p first_stream, \p first_stream + \p record_count). On kAccept the
  /// block is marked done and its lease (live or superseding) retired.
  [[nodiscard]] CommitDisposition check_commit(std::uint64_t lease_id,
                                               std::uint64_t first_stream,
                                               std::size_t record_count);

  /// Blocks not yet done (leased or pending).
  [[nodiscard]] std::size_t outstanding() const noexcept {
    return planner_->num_blocks() - done_count_;
  }

  /// Streams at or past \p stream in completed blocks: the admitted work a
  /// cut at \p stream does not keep.
  [[nodiscard]] std::size_t done_streams_from(std::size_t stream) const;

  // ---- recovery support (fuzz/fleet/durable/) ----------------------------

  /// Completed block indices, ascending (checkpoint serialization).
  [[nodiscard]] std::vector<std::size_t> done_blocks() const;

  /// Marks \p block done during recovery (no lease involved). Idempotent.
  /// \throws std::out_of_range when the plan has no such block.
  void restore_done(std::size_t block);

  /// Marks the block exactly covering [\p first_stream, + \p record_count)
  /// done during recovery. Returns false (and does nothing) when no
  /// planned block has that shape — e.g. a checkpoint's merged prefix
  /// spanning several blocks, which done_blocks covers instead.
  bool restore_covered(std::uint64_t first_stream, std::size_t record_count);

  /// The id the next grant will use.
  [[nodiscard]] std::uint64_t next_lease_id() const noexcept {
    return next_lease_id_;
  }

  /// Ensures all future lease ids are > \p beyond: ids issued by a
  /// pre-crash incarnation must never be reused, so a stale in-flight
  /// commit can never collide with a fresh live lease.
  void advance_lease_ids(std::uint64_t beyond) noexcept {
    if (next_lease_id_ <= beyond) next_lease_id_ = beyond + 1;
  }

 private:
  enum class BlockState : std::uint8_t { kPending, kLeased, kDone };

  struct Lease {
    std::size_t block = 0;
    ConnId conn = 0;
    std::uint64_t deadline = 0;
  };

  /// The block whose slice starts at \p first_stream with exactly
  /// \p record_count streams, or nullopt when no such block is planned.
  [[nodiscard]] std::optional<std::size_t> block_of(
      std::uint64_t first_stream, std::size_t record_count) const;

  void release_block(std::size_t block);
  void complete_block(std::size_t block);

  const shard::ShardPlanner* planner_;
  std::uint64_t timeout_;
  std::vector<BlockState> states_;
  std::set<std::size_t> pending_;          ///< blocks in kPending
  std::map<std::uint64_t, Lease> leases_;  ///< live leases by id
  std::map<std::size_t, std::uint64_t> lease_of_block_;
  std::uint64_t next_lease_id_ = 1;
  std::size_t done_count_ = 0;
};

}  // namespace hdtest::fuzz::fleet
