#include "fuzz/fleet/worker.hpp"

#include <utility>

#include "util/rng.hpp"

namespace hdtest::fuzz::fleet {

std::vector<CampaignRecord> FuzzSliceExecutor::execute(
    const shard::StreamSlice& slice) {
  // Identical to CampaignRuntime::execute_slice minus the StopToken check:
  // a remote worker has no view of the merge frontier, so it runs the whole
  // lease and lets the coordinator's ledger discard any overshoot.
  if (tally_.streams == nullptr) {
    tally_ = FuzzTally::for_strategy(fuzzer_->strategy().name());
  }
  std::vector<CampaignRecord> records;
  records.reserve(slice.count);
  for (std::size_t s = slice.first; s < slice.end(); ++s) {
    const std::size_t i = planner_->input_of(s);
    util::Rng rng(planner_->stream_seed(s));
    CampaignRecord record;
    record.image_index = i;
    record.true_label = inputs_->labels.empty() ? -1 : inputs_->labels[i];
    const SeedContext* seed = bank_ != nullptr ? bank_->acquire(i) : nullptr;
    record.outcome = seed != nullptr
                         ? fuzzer_->fuzz_one(inputs_->images[i], rng, *seed)
                         : fuzzer_->fuzz_one(inputs_->images[i], rng);
    tally_.note(record.outcome);
    records.push_back(std::move(record));
  }
  return records;
}

Frame WorkerCore::hello() {
  state_ = State::kAwaitHelloAck;
  current_lease_ = 0;  // whatever was in flight will expire server-side
  executed_lease_ = 0;
  Frame frame = make_hello(Hello{fingerprint_});
  pending_ = frame;
  return frame;
}

Frame WorkerCore::on_reconnect() { return hello(); }

std::vector<Frame> WorkerCore::request(Frame frame) {
  pending_ = frame;
  std::vector<Frame> out;
  out.push_back(std::move(frame));
  return out;
}

std::vector<Frame> WorkerCore::on_frame(const Frame& frame) {
  if (done() || !known_kind(frame.kind)) return {};
  const auto kind = static_cast<MessageKind>(frame.kind);

  // Terminal messages apply in any state.
  if (kind == MessageKind::kShutdown) {
    decode_empty(frame.body, "Shutdown");
    state_ = State::kDone;
    pending_.reset();
    return {};
  }
  if (kind == MessageKind::kReject) {
    (void)decode_reject(frame.body);
    state_ = State::kFailed;
    pending_.reset();
    return {};
  }

  switch (state_) {
    case State::kAwaitHelloAck: {
      if (kind != MessageKind::kHelloAck) return {};
      worker_id_ = decode_hello_ack(frame.body).worker_id;
      state_ = State::kAwaitGrant;
      return request(make_lease_request());
    }
    case State::kAwaitGrant: {
      if (kind == MessageKind::kIdle) {
        decode_empty(frame.body, "Idle");
        // Nothing leasable right now; re-ask. The driver paces resends of
        // this request (backoff), so this cannot become a busy loop.
        return request(make_lease_request());
      }
      if (kind != MessageKind::kLeaseGrant) return {};
      const LeaseGrant grant = decode_lease_grant(frame.body);
      // A late copy of the grant just executed and acknowledged (the
      // coordinator re-sends a live lease to a repeated request).
      if (grant.lease_id == executed_lease_) return {};
      shard::StreamSlice slice;
      slice.first = static_cast<std::size_t>(grant.first_stream);
      slice.count = static_cast<std::size_t>(grant.stream_count);
      Commit commit;
      commit.lease_id = grant.lease_id;
      commit.first_stream = grant.first_stream;
      current_lease_ = grant.lease_id;
      executed_lease_ = grant.lease_id;
      commit.records = executor_->execute(slice);
      ++slices_executed_;
      for (const CampaignRecord& record : commit.records) {
        ++streams_done_;
        encodes_done_ += record.outcome.encodes;
        if (record.outcome.success) ++adversarials_;
      }
      state_ = State::kAwaitCommitAck;
      return request(make_commit(commit));
    }
    case State::kAwaitCommitAck: {
      if (kind != MessageKind::kCommitAck) return {};
      // An ack for an earlier commit (duplicated or delayed) is stale.
      if (decode_commit_ack(frame.body).lease_id != current_lease_) return {};
      current_lease_ = 0;
      state_ = State::kAwaitGrant;
      return request(make_lease_request());
    }
    case State::kDone:
    case State::kFailed:
      return {};
  }
  return {};
}

std::optional<Frame> WorkerCore::on_retry_tick() {
  if (done()) return std::nullopt;
  return pending_;
}

Frame WorkerCore::heartbeat() const {
  Heartbeat beat;
  beat.worker_id = worker_id_;
  beat.lease_id = current_lease_;
  beat.slices_done = slices_executed_;
  beat.streams_done = streams_done_;
  beat.encodes_done = encodes_done_;
  beat.adversarials = adversarials_;
  return make_heartbeat(beat);
}

}  // namespace hdtest::fuzz::fleet
