#include "fuzz/fleet/tcp.hpp"

#include <cstdint>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace hdtest::fuzz::fleet {

namespace net = util::net;

namespace {

constexpr std::size_t kRecvChunk = 4096;

/// Pause between lease polls when the coordinator answered Idle, so a
/// starved worker doesn't hammer the socket.
constexpr std::uint64_t kIdlePollMs = 100;

/// Transport-level tallies, resolved once (registry lookups lock).
struct NetCounters {
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* accepts;
  obs::Counter* worker_reconnects;
};

const NetCounters& net_counters() {
  static const NetCounters tally = [] {
    auto& reg = obs::Registry::global();
    return NetCounters{&reg.counter("fleet_net_bytes_sent_total"),
                       &reg.counter("fleet_net_bytes_received_total"),
                       &reg.counter("fleet_net_frames_sent_total"),
                       &reg.counter("fleet_net_frames_received_total"),
                       &reg.counter("fleet_net_accepts_total"),
                       &reg.counter("fleet_worker_reconnects_total")};
  }();
  return tally;
}

bool send_frame(const net::Socket& socket, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame.kind, frame.body);
  if (!net::send_all(socket, bytes.data(), bytes.size())) return false;
  net_counters().frames_sent->add(1);
  net_counters().bytes_sent->add(bytes.size());
  return true;
}

}  // namespace

// ---- TcpCoordinator ------------------------------------------------------

TcpCoordinator::TcpCoordinator(const shard::ShardPlanner& planner,
                               std::size_t target, Options options)
    : storage_(options.journal_dir.empty()
                   ? nullptr
                   : std::make_unique<durable::PosixStorage>(
                         options.journal_dir)),
      durable_(storage_ == nullptr
                   ? nullptr
                   : std::make_unique<durable::DurableCoordinator>(
                         *storage_, campaign_fingerprint(planner, target),
                         options.durable)),
      core_(planner, target,
            CoordinatorCore::Options{options.lease_timeout_ms,
                                     options.strategy_name, durable_.get()}),
      options_(std::move(options)),
      listener_(net::listen_tcp(options_.port)),
      port_(net::local_port(listener_)) {
  if (durable_ != nullptr) {
    if (durable_->resumed() && !options_.resume) {
      throw durable::DurabilityError(
          "journal dir already holds campaign state; pass resume to merge "
          "it (or point at an empty directory)");
    }
    durable_->attach(core_);
  }
}

void TcpCoordinator::close_conn(ConnId id) { conns_.erase(id); }

void TcpCoordinator::pump_connection(ConnId id, Conn& conn) {
  std::uint8_t buf[kRecvChunk];
  const long got = net::recv_some(conn.socket, buf, sizeof buf,
                                  /*timeout_ms=*/10);
  if (got == -1) return;  // nothing this round
  if (got <= 0) {
    // Peer closed (0) or hard error (-2): its leases go back in the pool.
    core_.on_disconnect(id);
    close_conn(id);
    return;
  }
  net_counters().bytes_received->add(static_cast<std::uint64_t>(got));
  conn.reader.feed(std::span<const std::uint8_t>(
      buf, static_cast<std::size_t>(got)));
  Frame frame;
  while (conn.reader.next(frame) == FrameStatus::kOk) {
    net_counters().frames_received->add(1);
    core_.on_frame(id, frame, net::now_ms());
  }
  if (conn.reader.poisoned()) {
    // Corrupted stream: framing is unrecoverable. Count it, re-lease the
    // sender's work, drop the connection; the worker reconnects clean.
    core_.on_corrupt_frame(id);
    core_.on_disconnect(id);
    close_conn(id);
  }
}

void TcpCoordinator::flush_outbox() {
  for (CoordinatorCore::Outgoing& out : core_.take_outbox()) {
    const auto it = conns_.find(out.conn);
    if (it == conns_.end()) continue;
    if (!send_frame(it->second.socket, out.frame)) {
      core_.on_disconnect(out.conn);
      close_conn(out.conn);
      continue;
    }
    if (out.close_after) close_conn(out.conn);
  }
}

void TcpCoordinator::publish_metrics() const {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  if (!obs::write_text_file(options_.metrics_out, render_prometheus(snap))) {
    util::log_warn("metrics exposition write failed: ", options_.metrics_out);
    return;
  }
  // One structured line per worker: greppable in text mode, parseable in
  // JSON mode — the operator's fleet status table.
  for (const WorkerHealth& w : core_.worker_health()) {
    util::log_structured(
        util::LogLevel::kInfo, "fleet worker",
        {util::field("worker", w.worker_id), util::field("lease", w.lease_id),
         util::field("slices", w.slices_done),
         util::field("streams", w.streams_done),
         util::field("mutants", w.encodes_done),
         util::field("adversarials", w.adversarials),
         util::field("mutants_per_sec", w.mutants_per_sec),
         util::field("last_heard_ms", w.last_heard)});
  }
  util::log_structured(
      util::LogLevel::kInfo, "fleet totals",
      {util::field("admitted", snap.counter_value("fleet_commits_admitted_total")),
       util::field("reissued", snap.counter_value("fleet_leases_reissued_total")),
       util::field("wasted", snap.counter_value("fleet_streams_wasted_total")),
       util::field("heartbeats", snap.counter_value("fleet_heartbeats_total"))});
}

CampaignResult TcpCoordinator::run(const std::atomic<bool>* stop) {
  const std::uint64_t started = net::now_ms();
  std::uint64_t finished_at = 0;
  std::uint64_t next_metrics_at = 0;
  const bool metrics_on = obs::enabled() && !options_.metrics_out.empty();
  bool final_checkpoint_done = false;
  for (;;) {
    const std::uint64_t now = net::now_ms();
    if (metrics_on && now >= next_metrics_at) {
      publish_metrics();
      next_metrics_at = now + options_.metrics_interval_ms;
    }
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      core_.drain();  // abandon at the replay frontier, notify workers
      // The drain checkpoint must be durable BEFORE any Shutdown reaches a
      // worker; otherwise a crash right here leaves a disbanded fleet and
      // an undrained journal (durable_coordinator.hpp).
      if (durable_ != nullptr) durable_->checkpoint_now();
      flush_outbox();
      break;
    }
    core_.on_tick(now);

    if (auto accepted = net::accept_tcp(listener_, /*timeout_ms=*/10);
        accepted.valid()) {
      net_counters().accepts->add(1);
      const ConnId id = next_conn_++;
      Conn conn;
      conn.socket = std::move(accepted);
      conns_.emplace(id, std::move(conn));
      core_.on_connect(id);
    }

    std::vector<ConnId> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) ids.push_back(id);
    for (const ConnId id : ids) {
      const auto it = conns_.find(id);
      if (it != conns_.end()) pump_connection(id, it->second);
    }
    if (durable_ != nullptr) {
      if (core_.finished()) {
        // Same ordering rule as the drain path: make the final state
        // durable before the Shutdowns queued by the finishing commit are
        // flushed below.
        if (!final_checkpoint_done) {
          durable_->checkpoint_now();
          final_checkpoint_done = true;
        }
      } else {
        durable_->maybe_checkpoint();
      }
    }
    flush_outbox();

    if (core_.finished()) {
      if (finished_at == 0) finished_at = now;
      // Linger so workers still mid-request can pick up their Shutdown.
      if (conns_.empty() || now - finished_at >= options_.linger_ms) break;
    }
  }
  if (!core_.finished()) {
    core_.drain();
    if (durable_ != nullptr) durable_->checkpoint_now();
    flush_outbox();
  }
  if (metrics_on) publish_metrics();
  if (obs::enabled() && !options_.trace_out.empty() &&
      !obs::write_chrome_trace(options_.trace_out)) {
    util::log_warn("trace export write failed: ", options_.trace_out);
  }
  CampaignResult result = core_.take_result();
  result.total_seconds =
      static_cast<double>(net::now_ms() - started) / 1000.0;
  return result;
}

// ---- TcpWorker -----------------------------------------------------------

bool TcpWorker::run(const std::atomic<bool>* stop) {
  const util::BackoffPolicy backoff;
  std::size_t failures = 0;
  const auto stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };

  bool connected_before = false;
  while (failures < options_.max_reconnects) {
    if (stopped()) return false;
    if (failures > 0) {
      net::sleep_ms(backoff.delay_ms(failures, options_.backoff_seed));
    }
    net::Socket socket = net::connect_tcp(options_.host, options_.port);
    if (!socket.valid()) {
      ++failures;
      continue;
    }
    if (connected_before) net_counters().worker_reconnects->add(1);
    connected_before = true;
    if (!send_frame(socket, core_.on_reconnect())) {
      ++failures;
      continue;
    }

    FrameReader reader;
    std::size_t resends = 0;
    bool conn_ok = true;
    const bool beats_on = obs::enabled() && options_.heartbeat_interval_ms > 0;
    std::uint64_t next_beat_at =
        net::now_ms() + options_.heartbeat_interval_ms;
    while (conn_ok) {
      if (core_.done()) return !core_.failed();
      if (stopped()) return false;
      if (beats_on && core_.heartbeat_ready()) {
        const std::uint64_t beat_now = net::now_ms();
        if (beat_now >= next_beat_at) {
          // Fire-and-forget: a lost heartbeat only stales the health table,
          // so a send failure here is left for the request path to notice.
          (void)send_frame(socket, core_.heartbeat());
          next_beat_at = beat_now + options_.heartbeat_interval_ms;
        }
      }
      std::uint8_t buf[kRecvChunk];
      const long got =
          net::recv_some(socket, buf, sizeof buf,
                         static_cast<int>(options_.response_timeout_ms));
      if (got > 0) {
        failures = 0;  // the link works; reset the reconnect budget
        reader.feed(std::span<const std::uint8_t>(
            buf, static_cast<std::size_t>(got)));
        Frame frame;
        while (conn_ok && reader.next(frame) == FrameStatus::kOk) {
          resends = 0;
          const bool was_idle =
              frame.kind == static_cast<std::uint16_t>(MessageKind::kIdle);
          std::vector<Frame> replies;
          try {
            replies = core_.on_frame(frame);
          } catch (const WireFormatError&) {
            conn_ok = false;  // coordinator sent us garbage; reconnect
            break;
          }
          if (was_idle && !replies.empty()) net::sleep_ms(kIdlePollMs);
          for (const Frame& reply : replies) {
            if (!send_frame(socket, reply)) {
              conn_ok = false;
              break;
            }
          }
          if (core_.done()) return !core_.failed();
        }
        if (reader.poisoned()) conn_ok = false;
      } else if (got == -1) {
        // Reply overdue: resend the pending request, reconnect when the
        // connection looks dead.
        if (++resends > options_.max_resends) {
          conn_ok = false;
          continue;
        }
        const auto again = core_.on_retry_tick();
        if (again.has_value() && !send_frame(socket, *again)) {
          conn_ok = false;
        }
      } else {
        conn_ok = false;  // closed (0) or error (-2)
      }
    }
    ++failures;
  }
  return core_.done() && !core_.failed();
}

}  // namespace hdtest::fuzz::fleet
