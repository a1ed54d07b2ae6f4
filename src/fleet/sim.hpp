// Deterministic discrete-event scheduler: the substrate of the fleet
// service. One logical clock (modeled milliseconds), one binary heap of
// pending events, no threads -- driving 10^6 modeled devices costs one
// heap operation per event, not one thread per device. Determinism is
// absolute: events fire in (time, insertion-sequence) order, every random
// decision in the simulation flows from seeds derived with splitmix64,
// and a run with the same seed replays bit-for-bit, so fleet tests
// assert exact counts, not distributions.
#ifndef SDMMON_FLEET_SIM_HPP
#define SDMMON_FLEET_SIM_HPP

#include <cstdint>
#include <queue>
#include <vector>

namespace sdmmon::fleet {

/// Modeled time in milliseconds. The fleet clock is logical: campaign
/// backoff seconds scale by 1000, nothing reads the host clock.
using SimTime = std::uint64_t;

/// One scheduled occurrence. `kind` and the two argument words are
/// interpreted by the receiving actor; keeping events POD (no closures)
/// is what lets a million-device run schedule tens of millions of events
/// without a heap allocation per event.
struct SimEvent {
  SimTime at = 0;
  std::uint64_t seq = 0;  // tie-break: insertion order at equal times
  std::uint32_t kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Simulator;

/// Something that receives events. Actors are borrowed (the owner --
/// service, test, bench -- outlives its simulator).
class SimActor {
 public:
  virtual ~SimActor() = default;
  virtual void on_event(Simulator& sim, const SimEvent& event) = 0;
};

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Total events dispatched so far (the devices/sec denominator).
  std::uint64_t events_executed() const { return executed_; }
  std::size_t events_pending() const { return heap_.size(); }

  void schedule_at(SimTime at, SimActor* actor, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0);
  void schedule_in(SimTime delay, SimActor* actor, std::uint32_t kind,
                   std::uint64_t a = 0, std::uint64_t b = 0) {
    schedule_at(now_ + delay, actor, kind, a, b);
  }

  /// Drain the queue completely. `max_events` bounds runaway simulations
  /// (0 = unbounded); returns events dispatched.
  std::uint64_t run(std::uint64_t max_events = 0);

 private:
  struct Entry {
    SimEvent event;
    SimActor* actor;
    /// Min-heap by (time, sequence): std::priority_queue is a max-heap,
    /// so the comparison is reversed.
    bool operator<(const Entry& rhs) const {
      if (event.at != rhs.event.at) return event.at > rhs.event.at;
      return event.seq > rhs.event.seq;
    }
  };

  bool step();

  std::priority_queue<Entry> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

/// splitmix64 step -- the canonical way this codebase derives independent
/// per-entity seeds from (fleet seed, entity id) without correlation.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace sdmmon::fleet

#endif  // SDMMON_FLEET_SIM_HPP
