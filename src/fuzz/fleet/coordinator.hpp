#pragma once
/// \file coordinator.hpp
/// Deterministic, transport-agnostic campaign coordinator (sans-io core).
///
/// The core is a pure state machine: drivers feed it connection lifecycle
/// events, decoded frames, and tick timestamps; it replies by queuing
/// outgoing frames in an outbox the driver drains. It never reads a clock,
/// spawns a thread, or touches a socket — which is why the same core runs
/// under the in-process fault-injecting simulator (sim.hpp) and the real
/// TCP driver (tcp.hpp), and why a fault schedule that reordered, dropped,
/// duplicated, and corrupted every message still merges the exact record
/// vector of `run_campaign(workers=1)`.
///
/// Determinism argument, in one paragraph: stream outcomes are pure
/// functions of (campaign config, stream index) — the ShardPlanner fixes
/// the mapping, workers just evaluate it. The LeaseTable only ever admits
/// commits whose (first, count) shape exactly matches a planned block, at
/// most once per block; the ProgressLedger then re-imposes stream order
/// and replays the sequential stopping rule. So the merged result depends
/// only on the plan — never on which worker ran a slice, how often a slice
/// was re-issued, or the order commits arrived.
///
/// Lease handout, in one paragraph: a connection holds at most one lease,
/// and a repeat LeaseRequest from it (a retry, or a duplicated frame)
/// re-sends that lease's grant without journaling or counting it again.
/// No block starting at or past the ledger's provable cut
/// (ProgressLedger::useful_bound) is leased — such a request is answered
/// Idle — so the fleet stops fuzzing streams it can never keep. Admitted
/// records past the cut are counted in CoordinatorStats::streams_past_cut.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/fleet/lease.hpp"
#include "fuzz/fleet/protocol.hpp"
#include "fuzz/fleet/wire.hpp"
#include "fuzz/shard/ledger.hpp"
#include "fuzz/shard/plan.hpp"
#include "fuzz/shard/stop_token.hpp"

namespace hdtest::fuzz::fleet {

/// Fault-handling counters, exposed for tests and the bench harness.
struct CoordinatorStats {
  std::size_t commits_accepted = 0;
  std::size_t duplicate_commits = 0;  ///< acked without merging
  std::size_t commits_rejected = 0;   ///< shape mismatch (kBadCommit)
  std::size_t corrupt_frames = 0;     ///< wire-level rejects from transport
  std::size_t leases_reissued = 0;    ///< expiry + revocation re-queues
  std::size_t workers_rejected = 0;   ///< fingerprint/state rejects
  /// Records of admitted commits the merged result does not keep
  /// (fleet_streams_wasted_total): those admitted before the cut are added
  /// once when this core decides it, each later commit as it is admitted.
  std::size_t streams_past_cut = 0;
};

/// Last-known health of one worker, aggregated from its Heartbeat reports.
/// Everything here is telemetry: it never feeds the lease table or the
/// ledger, so a lost (or faulted-away) heartbeat cannot change a result.
struct WorkerHealth {
  std::uint64_t worker_id = 0;
  std::uint64_t lease_id = 0;      ///< current lease (0 = idle)
  std::uint64_t slices_done = 0;
  std::uint64_t streams_done = 0;
  std::uint64_t encodes_done = 0;
  std::uint64_t adversarials = 0;
  std::uint64_t last_heard = 0;    ///< driver timestamp of the newest report
  /// Model queries per second between the last two reports (driver ticks
  /// are milliseconds under TCP; the simulator's virtual ms behave alike).
  double mutants_per_sec = 0.0;
};

/// Observer for the state transitions a durable driver must write ahead
/// of the in-memory mutation (see fuzz/fleet/durable/). Calls arrive
/// synchronously from inside the core; implementations must not call back
/// into it. A null hook (the default) costs nothing.
class CoordinatorHook {
 public:
  virtual ~CoordinatorHook() = default;

  /// A lease was granted (called before the grant frame is queued).
  virtual void on_lease_granted(std::uint64_t lease_id,
                                std::uint64_t first_stream,
                                std::uint64_t stream_count) = 0;

  /// A commit was admitted — called BEFORE the ledger merges the records,
  /// so a crash between the two replays the commit instead of losing it.
  /// Not called once the coordinator drained (the abandon cut must not
  /// move on replay).
  virtual void on_commit_admitted(std::uint64_t lease_id,
                                  std::uint64_t first_stream,
                                  std::span<const CampaignRecord> records) = 0;

  /// drain() was invoked — the abandon path, which unlike a natural finish
  /// is not re-derivable from the records alone.
  virtual void on_drained() = 0;
};

/// See the file comment. Single-threaded: drivers serialize all calls.
class CoordinatorCore {
 public:
  struct Options {
    /// Lease lifetime in the driver's tick unit (ms for TCP).
    std::uint64_t lease_timeout = 2000;
    /// Stamped into the CampaignResult.
    std::string strategy_name;
    /// Durability observer (borrowed, may be null). Appended last so
    /// existing aggregate initializers stay valid.
    CoordinatorHook* hook = nullptr;
  };

  /// \param planner borrowed; must outlive the core.
  /// \param target  successes to stop at (0 = sweep mode).
  CoordinatorCore(const shard::ShardPlanner& planner, std::size_t target,
                  Options options);

  // ---- durability (fuzz/fleet/durable/) ----------------------------------

  /// Recovery payload for restore(), assembled by the durable layer from
  /// a checkpoint plus a journal replay.
  struct RestoredState {
    struct Chunk {
      std::size_t first_stream = 0;
      std::vector<CampaignRecord> records;
    };
    /// Admitted records to re-merge (any order; duplicates are idempotent).
    std::vector<Chunk> chunks;
    /// Lease blocks known complete (the checkpoint's done bitmap).
    std::vector<std::size_t> done_blocks;
    /// Highest lease id a prior incarnation issued — never reused, so a
    /// stale pre-crash commit can never collide with a fresh live lease.
    std::uint64_t max_lease_id = 0;
    /// A pre-crash drain was made durable; re-abandon after the re-merge.
    bool drained = false;
  };

  /// Installs recovered durable state. \pre no connections yet. A chunk
  /// whose shape matches a planned block also marks that block done; the
  /// ledger then replays the stopping rule over the merged records, so a
  /// restored campaign decides exactly where the solo run would.
  void restore(RestoredState state);

  /// Everything a checkpoint persists (plus the planner's block count for
  /// cross-validation on load).
  struct DurableSnapshot {
    std::uint64_t fingerprint = 0;
    std::uint64_t next_lease_id = 1;
    bool drained = false;
    std::size_t num_blocks = 0;
    std::vector<std::size_t> done_blocks;
    shard::ProgressLedger::Snapshot ledger;
  };
  [[nodiscard]] DurableSnapshot durable_snapshot() const;

  // ---- driver events -----------------------------------------------------

  void on_connect(ConnId conn);

  /// Connection went away; its leases return to pending.
  void on_disconnect(ConnId conn);

  /// The transport rejected a frame on \p conn (checksum, framing,
  /// truncation, hostile length). The bytes never reach the core; leases
  /// held by the sender are re-issued so the slice is retried elsewhere.
  void on_corrupt_frame(ConnId conn);

  /// A wire-valid frame arrived. Malformed bodies and protocol-order
  /// violations are answered with kReject and the connection is dropped.
  void on_frame(ConnId conn, const Frame& frame, std::uint64_t now);

  /// Periodic housekeeping: expires overdue leases.
  void on_tick(std::uint64_t now);

  /// Force-stop (SIGTERM drain): abandons the ledger at its replay
  /// frontier and queues Shutdown to every active connection. The partial
  /// result reports gave_up.
  void drain();

  // ---- driver outputs ----------------------------------------------------

  struct Outgoing {
    ConnId conn = 0;
    Frame frame;
    /// Driver should close the connection after transmitting.
    bool close_after = false;
  };

  /// Moves out frames queued since the last call.
  [[nodiscard]] std::vector<Outgoing> take_outbox();

  /// True once the stopping rule (or drain) decided the cut.
  [[nodiscard]] bool finished() const { return ledger_.finished(); }

  /// Assembles the merged result. \pre finished(). total_seconds is left 0
  /// for the driver to stamp (wall time is outside the determinism
  /// contract).
  [[nodiscard]] CampaignResult take_result();

  [[nodiscard]] const CoordinatorStats& stats() const noexcept {
    return stats_;
  }

  /// Per-worker health aggregated from Heartbeats, worker-id order. Entries
  /// persist after a worker dies (last_heard stops advancing) — exactly the
  /// view an operator needs to spot a stalled worker.
  [[nodiscard]] std::vector<WorkerHealth> worker_health() const;

  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  enum class ConnState : std::uint8_t { kAwaitHello, kActive };

  void send(ConnId conn, Frame frame, bool close_after = false);
  void reject(ConnId conn, RejectReason reason);
  void handle_lease_request(ConnId conn, std::uint64_t now);
  void handle_commit(ConnId conn, const Frame& frame, std::uint64_t now);
  void handle_heartbeat(const Heartbeat& beat, std::uint64_t now);
  void note_expired(std::size_t expired);
  void note_revoked(std::size_t revoked);
  /// Counts the admitted streams past the cut, once, when it is decided.
  void note_decided();
  void note_wasted(std::size_t streams);

  const shard::ShardPlanner* planner_;
  Options options_;
  std::uint64_t fingerprint_;
  shard::StopToken stop_;
  shard::ProgressLedger ledger_;
  LeaseTable leases_;
  std::map<ConnId, ConnState> conns_;
  std::map<std::uint64_t, WorkerHealth> health_;
  std::vector<Outgoing> outbox_;
  CoordinatorStats stats_;
  std::uint64_t next_worker_id_ = 1;
  bool drained_ = false;
  bool past_cut_counted_ = false;
};

}  // namespace hdtest::fuzz::fleet
