#include "fuzz/shard/ledger.hpp"

#include <algorithm>
#include <stdexcept>

namespace hdtest::fuzz::shard {

void ProgressLedger::commit(std::size_t first_stream,
                            std::vector<CampaignRecord> records) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Once the cut is decided every in-flight record is at or past it (the
  // decision point is the merge frontier, and slices commit in stream order
  // from their owner), so late commits are pure speculative overshoot.
  if (decided_ || records.empty()) return;
  pending_.emplace(first_stream, std::move(records));
  advance_locked();
}

void ProgressLedger::advance_locked() {
  for (;;) {
    if (decided_) return;
    // Sequential while-condition: stop before the next stream once the
    // target is met.
    if (target_ != 0 && successes_ >= target_) {
      decide_locked(scan_, /*gave_up=*/false);
      return;
    }
    // Valve (target mode) / end of the sweep.
    if (scan_ >= limit_) {
      decide_locked(limit_, target_ != 0 && successes_ < target_);
      return;
    }
    const auto it = pending_.begin();
    if (it == pending_.end() || it->first > scan_) return;  // gap: wait
    auto& slice = it->second;
    const std::size_t offset = scan_ - it->first;
    if (offset >= slice.size()) {
      pending_.erase(it);
      continue;
    }
    successes_ += slice[offset].outcome.success ? 1 : 0;
    ordered_.push_back(std::move(slice[offset]));
    ++scan_;
  }
}

void ProgressLedger::decide_locked(std::size_t cut, bool gave_up) {
  decided_ = true;
  cut_ = cut;
  gave_up_ = gave_up;
  pending_.clear();
  if (stop_ != nullptr) stop_->cut_to(cut);
}

bool ProgressLedger::finished() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return decided_;
}

std::size_t ProgressLedger::cut() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!decided_) throw std::logic_error("ProgressLedger::cut: not finished");
  return cut_;
}

bool ProgressLedger::gave_up() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!decided_) {
    throw std::logic_error("ProgressLedger::gave_up: not finished");
  }
  return gave_up_;
}

std::size_t ProgressLedger::useful_bound() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (decided_) return cut_;
  if (target_ == 0) return limit_;
  std::size_t known = successes_;
  std::size_t next = scan_;  // slices may overlap; count each stream once
  for (const auto& [first, slice] : pending_) {
    for (std::size_t s = std::max(first, next); s < first + slice.size();
         ++s) {
      if (!slice[s - first].outcome.success) continue;
      if (++known >= target_) return std::min(s + 1, limit_);
    }
    next = std::max(next, first + slice.size());
  }
  return limit_;
}

ProgressLedger::Snapshot ProgressLedger::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.ordered = ordered_;
  snap.pending = pending_;
  return snap;
}

void ProgressLedger::abandon() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (decided_) return;
  decide_locked(scan_, /*gave_up=*/true);
}

std::vector<CampaignRecord> ProgressLedger::take_records() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!decided_) {
    throw std::logic_error("ProgressLedger::take_records: not finished");
  }
  return std::move(ordered_);
}

}  // namespace hdtest::fuzz::shard
