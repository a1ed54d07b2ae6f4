#include "obs/journal.hpp"

#include <algorithm>

namespace sdmmon::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::Install: return "install";
    case EventKind::Reinstall: return "reinstall";
    case EventKind::Quarantine: return "quarantine";
    case EventKind::Release: return "release";
    case EventKind::AttackDetected: return "attack-detected";
    case EventKind::Trap: return "trap";
    case EventKind::CampaignFailure: return "campaign-failure";
    case EventKind::RolloutWave: return "rollout-wave";
    case EventKind::RolloutHalt: return "rollout-halt";
    case EventKind::RolloutRollback: return "rollout-rollback";
    case EventKind::RpcSessionOpened: return "rpc-session-opened";
    case EventKind::RpcSessionClosed: return "rpc-session-closed";
    case EventKind::RpcRejected: return "rpc-rejected";
  }
  return "?";
}

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

void EventJournal::record(const Event& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (size_ == capacity_) {
    // Evict the oldest: overwrite its slot and advance the head.
    ring_[head_] = event;
    head_ = (head_ + 1) % capacity_;
  } else {
    ring_[(head_ + size_) % capacity_] = event;
    ++size_;
  }
  ++recorded_;
}

std::uint64_t EventJournal::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t EventJournal::evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_ - size_;
}

std::vector<Event> EventJournal::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

std::vector<Event> EventJournal::events_and_recorded(
    std::uint64_t& recorded) const {
  std::lock_guard<std::mutex> lock(mu_);
  recorded = recorded_;
  std::vector<Event> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

void EventJournal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
  // recorded_ is a lifetime total and survives clear().
}

void EventJournal::append_json(JsonWriter& writer) const {
  const std::vector<Event> copy = events();
  writer.begin_array();
  for (const Event& e : copy) {
    writer.begin_object();
    writer.key("kind").value(event_kind_name(e.kind));
    writer.key("cycle").value(e.cycle);
    writer.key("core").value(e.core);
    writer.key("device").value(e.device);
    writer.key("arg").value(e.arg);
    writer.end_object();
  }
  writer.end_array();
}

}  // namespace sdmmon::obs
