#include "fuzz/fleet/coordinator.hpp"

#include <utility>

#include "obs/registry.hpp"

namespace hdtest::fuzz::fleet {

namespace {

/// Process-wide fleet counters, resolved once (registry lookups lock).
/// Shared across cores: telemetry aggregates the process, tests that need
/// per-core numbers read CoordinatorStats instead.
struct FleetCounters {
  obs::Counter* commits_admitted;
  obs::Counter* commits_duplicate;
  obs::Counter* commits_rejected;
  obs::Counter* corrupt_frames;
  obs::Counter* leases_granted;
  obs::Counter* leases_expired;
  obs::Counter* leases_reissued;
  obs::Counter* streams_wasted;
  obs::Counter* workers_rejected;
  obs::Counter* heartbeats;
  obs::Gauge* connections;
};

const FleetCounters& fleet_counters() {
  static const FleetCounters tally = [] {
    auto& reg = obs::Registry::global();
    return FleetCounters{&reg.counter("fleet_commits_admitted_total"),
                         &reg.counter("fleet_commits_duplicate_total"),
                         &reg.counter("fleet_commits_rejected_total"),
                         &reg.counter("fleet_corrupt_frames_total"),
                         &reg.counter("fleet_leases_granted_total"),
                         &reg.counter("fleet_leases_expired_total"),
                         &reg.counter("fleet_leases_reissued_total"),
                         &reg.counter("fleet_streams_wasted_total"),
                         &reg.counter("fleet_workers_rejected_total"),
                         &reg.counter("fleet_heartbeats_total"),
                         &reg.gauge("fleet_connections")};
  }();
  return tally;
}

}  // namespace

CoordinatorCore::CoordinatorCore(const shard::ShardPlanner& planner,
                                 std::size_t target, Options options)
    : planner_(&planner),
      options_(std::move(options)),
      fingerprint_(campaign_fingerprint(planner, target)),
      stop_(planner.stream_limit()),
      ledger_(target, planner.stream_limit(), &stop_),
      leases_(planner, options_.lease_timeout) {}

void CoordinatorCore::restore(RestoredState state) {
  for (const std::size_t block : state.done_blocks) {
    leases_.restore_done(block);
  }
  for (auto& chunk : state.chunks) {
    // Chunks shaped like a planned block mark it done; the checkpoint's
    // merged prefix (one chunk spanning many blocks) is covered by the
    // explicit done_blocks list instead.
    (void)leases_.restore_covered(chunk.first_stream, chunk.records.size());
    ledger_.commit(chunk.first_stream, std::move(chunk.records));
  }
  leases_.advance_lease_ids(state.max_lease_id);
  // A cut decided here replays a prior incarnation's decision, which that
  // incarnation counted; this one counts only what it admits from now on.
  past_cut_counted_ = ledger_.finished() || state.drained;
  if (state.drained) drain();
}

CoordinatorCore::DurableSnapshot CoordinatorCore::durable_snapshot() const {
  DurableSnapshot snap;
  snap.fingerprint = fingerprint_;
  snap.next_lease_id = leases_.next_lease_id();
  snap.drained = drained_;
  snap.num_blocks = planner_->num_blocks();
  snap.done_blocks = leases_.done_blocks();
  snap.ledger = ledger_.snapshot();
  return snap;
}

void CoordinatorCore::on_connect(ConnId conn) {
  conns_[conn] = ConnState::kAwaitHello;
  fleet_counters().connections->set(conns_.size());
}

void CoordinatorCore::on_disconnect(ConnId conn) {
  conns_.erase(conn);
  fleet_counters().connections->set(conns_.size());
  note_revoked(leases_.revoke(conn));
}

void CoordinatorCore::on_corrupt_frame(ConnId conn) {
  ++stats_.corrupt_frames;
  fleet_counters().corrupt_frames->add(1);
  // The sender's stream can no longer be trusted (and over TCP the framing
  // is lost); whatever it was working on goes back in the pool.
  note_revoked(leases_.revoke(conn));
}

void CoordinatorCore::on_frame(ConnId conn, const Frame& frame,
                               std::uint64_t now) {
  const auto state_it = conns_.find(conn);
  if (state_it == conns_.end()) return;  // raced a disconnect

  if (!known_kind(frame.kind)) {
    reject(conn, RejectReason::kBadState);
    return;
  }

  try {
    const auto kind = static_cast<MessageKind>(frame.kind);
    if (state_it->second == ConnState::kAwaitHello) {
      if (kind == MessageKind::kHeartbeat) {
        // A worker that reconnected after a coordinator restart may emit a
        // heartbeat before its Hello lands. Telemetry is droppable by
        // contract — validate the body, ignore the report, keep the
        // connection (see protocol.hpp).
        (void)decode_heartbeat(frame.body);
        return;
      }
      if (kind != MessageKind::kHello) {
        reject(conn, RejectReason::kBadState);
        return;
      }
      const Hello hello = decode_hello(frame.body);
      if (hello.fingerprint != fingerprint_) {
        ++stats_.workers_rejected;
        fleet_counters().workers_rejected->add(1);
        send(conn, make_reject(Reject{RejectReason::kBadFingerprint}),
             /*close_after=*/true);
        conns_.erase(conn);
        return;
      }
      state_it->second = ConnState::kActive;
      send(conn, make_hello_ack(HelloAck{next_worker_id_++}));
      return;
    }

    switch (kind) {
      case MessageKind::kHello: {
        // A duplicated Hello frame (fault injection); answer idempotently
        // so a worker whose first ack was dropped can make progress.
        const Hello hello = decode_hello(frame.body);
        if (hello.fingerprint != fingerprint_) {
          reject(conn, RejectReason::kBadFingerprint);
          return;
        }
        send(conn, make_hello_ack(HelloAck{next_worker_id_++}));
        return;
      }
      case MessageKind::kLeaseRequest:
        decode_empty(frame.body, "LeaseRequest");
        handle_lease_request(conn, now);
        return;
      case MessageKind::kCommit:
        handle_commit(conn, frame, now);
        return;
      case MessageKind::kHeartbeat:
        handle_heartbeat(decode_heartbeat(frame.body), now);
        return;
      default:
        // Workers never send HelloAck/LeaseGrant/Idle/CommitAck/Shutdown/
        // Reject; anything else here is a protocol-order violation.
        reject(conn, RejectReason::kBadState);
        return;
    }
  } catch (const WireFormatError&) {
    // The frame's checksums were fine but the body is malformed: either a
    // protocol bug or a hostile peer. Drop the connection; its leases are
    // re-issued via the disconnect path the driver will report.
    reject(conn, RejectReason::kBadState);
  }
}

void CoordinatorCore::on_tick(std::uint64_t now) {
  note_expired(leases_.expire(now));
}

std::vector<WorkerHealth> CoordinatorCore::worker_health() const {
  std::vector<WorkerHealth> out;
  out.reserve(health_.size());
  for (const auto& [id, beat] : health_) out.push_back(beat);
  return out;
}

void CoordinatorCore::handle_heartbeat(const Heartbeat& beat,
                                       std::uint64_t now) {
  fleet_counters().heartbeats->add(1);
  WorkerHealth& health = health_[beat.worker_id];
  if (health.worker_id != 0 && now > health.last_heard &&
      beat.encodes_done >= health.encodes_done) {
    const auto delta = static_cast<double>(beat.encodes_done -
                                           health.encodes_done);
    health.mutants_per_sec =
        delta * 1000.0 / static_cast<double>(now - health.last_heard);
  }
  health.worker_id = beat.worker_id;
  health.lease_id = beat.lease_id;
  health.slices_done = beat.slices_done;
  health.streams_done = beat.streams_done;
  health.encodes_done = beat.encodes_done;
  health.adversarials = beat.adversarials;
  health.last_heard = now;
}

void CoordinatorCore::note_expired(std::size_t expired) {
  stats_.leases_reissued += expired;
  if (expired != 0) {
    fleet_counters().leases_expired->add(expired);
    fleet_counters().leases_reissued->add(expired);
  }
}

void CoordinatorCore::note_revoked(std::size_t revoked) {
  stats_.leases_reissued += revoked;
  if (revoked != 0) fleet_counters().leases_reissued->add(revoked);
}

void CoordinatorCore::note_decided() {
  if (past_cut_counted_ || !ledger_.finished()) return;
  past_cut_counted_ = true;
  note_wasted(leases_.done_streams_from(ledger_.cut()));
}

void CoordinatorCore::note_wasted(std::size_t streams) {
  stats_.streams_past_cut += streams;
  if (streams != 0) fleet_counters().streams_wasted->add(streams);
}

void CoordinatorCore::drain() {
  if (drained_) return;
  drained_ = true;
  ledger_.abandon();
  if (options_.hook != nullptr) options_.hook->on_drained();
  note_decided();
  for (const auto& [conn, state] : conns_) {
    if (state == ConnState::kActive) {
      send(conn, make_shutdown(), /*close_after=*/true);
    }
  }
}

std::vector<CoordinatorCore::Outgoing> CoordinatorCore::take_outbox() {
  return std::exchange(outbox_, {});
}

CampaignResult CoordinatorCore::take_result() {
  CampaignResult result;
  result.records = ledger_.take_records();
  result.gave_up = ledger_.gave_up();
  result.strategy_name = options_.strategy_name;
  return result;
}

void CoordinatorCore::send(ConnId conn, Frame frame, bool close_after) {
  Outgoing out;
  out.conn = conn;
  out.frame = std::move(frame);
  out.close_after = close_after;
  outbox_.push_back(std::move(out));
}

void CoordinatorCore::reject(ConnId conn, RejectReason reason) {
  ++stats_.workers_rejected;
  fleet_counters().workers_rejected->add(1);
  send(conn, make_reject(Reject{reason}), /*close_after=*/true);
  conns_.erase(conn);
  note_revoked(leases_.revoke(conn));
}

void CoordinatorCore::handle_lease_request(ConnId conn, std::uint64_t now) {
  if (ledger_.finished()) {
    // Keep the connection: if this Shutdown is lost, the worker's retried
    // request must still find someone to answer it.
    send(conn, make_shutdown());
    return;
  }
  note_expired(leases_.expire(now));
  const auto granted = leases_.grant(conn, now, ledger_.useful_bound());
  if (!granted.has_value()) {
    // Everything below the provable cut is leased or committed but the
    // ledger hasn't decided yet (a gap is still executing elsewhere). The
    // worker backs off and asks again; if the holder died, expiry will
    // free the block by then.
    send(conn, make_idle());
    return;
  }
  LeaseGrant grant;
  grant.lease_id = granted->lease_id;
  grant.first_stream = granted->slice.first;
  grant.stream_count = granted->slice.count;
  // A re-send (retried or duplicated request) was journaled and counted
  // when the lease was minted.
  if (!granted->resent) {
    if (options_.hook != nullptr) {
      options_.hook->on_lease_granted(grant.lease_id, grant.first_stream,
                                      grant.stream_count);
    }
    fleet_counters().leases_granted->add(1);
  }
  send(conn, make_lease_grant(grant));
}

void CoordinatorCore::handle_commit(ConnId conn, const Frame& frame,
                                    std::uint64_t now) {
  Commit commit = decode_commit(frame.body);
  note_expired(leases_.expire(now));
  const CommitDisposition disposition = leases_.check_commit(
      commit.lease_id, commit.first_stream, commit.records.size());
  switch (disposition) {
    case CommitDisposition::kAccept: {
      // Once the cut is decided, every admitted record lies past it.
      const bool past_cut = ledger_.finished();
      const std::size_t streams = commit.records.size();
      // Write-ahead: the journal sees the commit before the ledger merges
      // it. Skipped after drain — the abandon cut is at the current merge
      // frontier and journaling later commits would move it on replay.
      if (options_.hook != nullptr && !drained_) {
        options_.hook->on_commit_admitted(commit.lease_id,
                                          commit.first_stream,
                                          commit.records);
      }
      ledger_.commit(static_cast<std::size_t>(commit.first_stream),
                     std::move(commit.records));
      if (past_cut) note_wasted(streams);
      ++stats_.commits_accepted;
      fleet_counters().commits_admitted->add(1);
      send(conn, make_commit_ack(CommitAck{commit.lease_id}));
      break;
    }
    case CommitDisposition::kDuplicate:
      ++stats_.duplicate_commits;
      fleet_counters().commits_duplicate->add(1);
      send(conn, make_commit_ack(CommitAck{commit.lease_id}));
      break;
    case CommitDisposition::kMismatch:
      // The records do not match any planned block: rejected, never
      // merged. The lease (if any) was revoked, so the slice re-issues.
      ++stats_.commits_rejected;
      fleet_counters().commits_rejected->add(1);
      send(conn, make_reject(Reject{RejectReason::kBadCommit}));
      break;
  }
  note_decided();
  if (ledger_.finished()) {
    send(conn, make_shutdown());
  }
}

}  // namespace hdtest::fuzz::fleet
