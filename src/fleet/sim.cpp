#include "fleet/sim.hpp"

namespace sdmmon::fleet {

void Simulator::schedule_at(SimTime at, SimActor* actor, std::uint32_t kind,
                            std::uint64_t a, std::uint64_t b) {
  // Scheduling into the past would reorder the already-dispatched prefix;
  // clamp to now so a zero-delay event still runs after the current one.
  if (at < now_) at = now_;
  heap_.push(Entry{SimEvent{at, next_seq_++, kind, a, b}, actor});
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  Entry entry = heap_.top();
  heap_.pop();
  now_ = entry.event.at;
  ++executed_;
  entry.actor->on_event(*this, entry.event);
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t dispatched = 0;
  while (max_events == 0 || dispatched < max_events) {
    if (!step()) break;
    ++dispatched;
  }
  return dispatched;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace sdmmon::fleet
