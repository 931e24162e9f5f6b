#include "fuzz/fleet/lease.hpp"

#include <algorithm>
#include <stdexcept>

namespace hdtest::fuzz::fleet {

LeaseTable::LeaseTable(const shard::ShardPlanner& planner,
                       std::uint64_t timeout_ticks)
    : planner_(&planner),
      timeout_(timeout_ticks),
      states_(planner.num_blocks(), BlockState::kPending) {
  for (std::size_t b = 0; b < states_.size(); ++b) pending_.insert(b);
}

std::optional<LeaseTable::Grant> LeaseTable::grant(
    ConnId conn, std::uint64_t now, std::size_t stream_bound) {
  for (const auto& [id, lease] : leases_) {
    if (lease.conn == conn) {
      return Grant{id, planner_->slice(lease.block), /*resent=*/true};
    }
  }
  if (pending_.empty()) return std::nullopt;
  const std::size_t block = *pending_.begin();
  if (planner_->slice(block).first >= stream_bound) return std::nullopt;
  pending_.erase(pending_.begin());
  states_[block] = BlockState::kLeased;
  const std::uint64_t id = next_lease_id_++;
  leases_[id] = Lease{block, conn, now + timeout_};
  lease_of_block_[block] = id;
  Grant result;
  result.lease_id = id;
  result.slice = planner_->slice(block);
  return result;
}

std::size_t LeaseTable::expire(std::uint64_t now) {
  std::size_t reissued = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (now >= it->second.deadline) {
      release_block(it->second.block);
      it = leases_.erase(it);
      ++reissued;
    } else {
      ++it;
    }
  }
  return reissued;
}

std::size_t LeaseTable::revoke(ConnId conn) {
  std::size_t reissued = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.conn == conn) {
      release_block(it->second.block);
      it = leases_.erase(it);
      ++reissued;
    } else {
      ++it;
    }
  }
  return reissued;
}

CommitDisposition LeaseTable::check_commit(std::uint64_t lease_id,
                                           std::uint64_t first_stream,
                                           std::size_t record_count) {
  const auto lease_it = leases_.find(lease_id);
  if (lease_it != leases_.end()) {
    const std::size_t block = lease_it->second.block;
    const shard::StreamSlice slice = planner_->slice(block);
    if (slice.first != first_stream || slice.count != record_count) {
      // The worker executed something other than what it was leased —
      // reject and put the block back in play.
      release_block(block);
      leases_.erase(lease_it);
      return CommitDisposition::kMismatch;
    }
    complete_block(block);
    leases_.erase(lease_it);
    return CommitDisposition::kAccept;
  }

  // Unknown lease: it expired (and may have been re-issued) or the ack for
  // an earlier accept was lost. The commit is still usable when its shape
  // exactly matches a planned block, because block content is deterministic.
  const auto block = block_of(first_stream, record_count);
  if (!block.has_value()) return CommitDisposition::kMismatch;
  switch (states_[*block]) {
    case BlockState::kDone:
      return CommitDisposition::kDuplicate;
    case BlockState::kPending:
      pending_.erase(*block);
      complete_block(*block);
      return CommitDisposition::kAccept;
    case BlockState::kLeased: {
      // A successor lease is in flight; this stale commit wins the race.
      // Retire the successor so its eventual commit lands as a duplicate.
      const auto successor = lease_of_block_.find(*block);
      if (successor != lease_of_block_.end()) {
        leases_.erase(successor->second);
      }
      complete_block(*block);
      return CommitDisposition::kAccept;
    }
  }
  return CommitDisposition::kMismatch;
}

std::size_t LeaseTable::done_streams_from(std::size_t stream) const {
  std::size_t streams = 0;
  for (std::size_t b = 0; b < states_.size(); ++b) {
    if (states_[b] != BlockState::kDone) continue;
    const shard::StreamSlice slice = planner_->slice(b);
    if (slice.end() > stream) {
      streams += slice.end() - std::max(slice.first, stream);
    }
  }
  return streams;
}

std::vector<std::size_t> LeaseTable::done_blocks() const {
  std::vector<std::size_t> done;
  for (std::size_t b = 0; b < states_.size(); ++b) {
    if (states_[b] == BlockState::kDone) done.push_back(b);
  }
  return done;
}

void LeaseTable::restore_done(std::size_t block) {
  if (block >= states_.size()) {
    throw std::out_of_range("LeaseTable::restore_done: no such block");
  }
  pending_.erase(block);
  complete_block(block);
}

bool LeaseTable::restore_covered(std::uint64_t first_stream,
                                 std::size_t record_count) {
  const auto block = block_of(first_stream, record_count);
  if (!block.has_value()) return false;
  pending_.erase(*block);
  complete_block(*block);
  return true;
}

std::optional<std::size_t> LeaseTable::block_of(
    std::uint64_t first_stream, std::size_t record_count) const {
  const std::size_t block_streams = planner_->block_streams();
  if (first_stream % block_streams != 0) return std::nullopt;
  const std::size_t block =
      static_cast<std::size_t>(first_stream) / block_streams;
  if (block >= states_.size()) return std::nullopt;
  const shard::StreamSlice slice = planner_->slice(block);
  if (slice.first != first_stream || slice.count != record_count) {
    return std::nullopt;
  }
  return block;
}

void LeaseTable::release_block(std::size_t block) {
  lease_of_block_.erase(block);
  if (states_[block] == BlockState::kLeased) {
    states_[block] = BlockState::kPending;
    pending_.insert(block);
  }
}

void LeaseTable::complete_block(std::size_t block) {
  lease_of_block_.erase(block);
  if (states_[block] != BlockState::kDone) {
    states_[block] = BlockState::kDone;
    ++done_count_;
  }
}

}  // namespace hdtest::fuzz::fleet
