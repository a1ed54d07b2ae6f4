// Bounded structured event journal: the "flight recorder" of the
// observability layer. Hot paths append fixed-size Event records
// (install / reinstall / quarantine / attack detection ...)
// with an engine-cycle timestamp and core/device ids; when the ring is
// full the oldest event is evicted, so a long-running engine keeps the
// most recent history at O(capacity) memory. Thread-safe: campaign code
// and engine threads may record concurrently.
#ifndef SDMMON_SRC_OBS_JOURNAL_HPP
#define SDMMON_SRC_OBS_JOURNAL_HPP

#include <cstdint>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace sdmmon::obs {

/// The numeric values are wire codes (the RPC Journal payload carries
/// them as one byte; docs/PROTOCOL.md lists them): never renumber one. A
/// retired kind leaves its code unused, and a new kind takes the next
/// code and becomes kLastEventKind.
enum class EventKind : std::uint8_t {
  Install = 0,            // configuration installed (core == kAllCores
                          // for all)
  Reinstall = 1,          // recovery re-imaged a core from last-good
  Quarantine = 2,         // recovery quarantined a core
  Release = 3,            // operator released a core back to service
  AttackDetected = 4,     // monitor mismatch on a packet
  Trap = 5,               // core trap (fault/overflow/watchdog) on a packet
  CampaignFailure = 6,    // fleet campaign gave up on a device
  RolloutWave = 7,        // staged rollout opened a wave (device = wave
                          // index)
  RolloutHalt = 8,        // halt controller froze a rollout (arg =
                          // HaltReason)
  RolloutRollback = 9,    // post-halt rollback finished (arg = devices
                          // rolled)
  RpcSessionOpened = 10,  // control-plane server accepted a session
                          // (device = session id)
  RpcSessionClosed = 11,  // session ended (arg = requests served)
  RpcRejected = 12,       // server refused a request or frame (arg =
                          // reason: RpcErrorCode, or 100 + FrameError
                          // for wire damage)
};

/// The highest assigned wire code; decoders reject anything above it.
inline constexpr EventKind kLastEventKind = EventKind::RpcRejected;

const char* event_kind_name(EventKind kind);

/// Sentinel core id meaning "every core" (fleet-wide installs).
inline constexpr std::uint32_t kAllCores = 0xFFFFFFFFu;

/// One journal record. `cycle` is the emitting subsystem's logical clock
/// -- engines stamp the number of packets committed so far, fleet
/// campaigns the cumulative install-attempt count -- so replaying a
/// deterministic workload yields an identical event stream. `arg` is a
/// kind-specific detail (see docs/OBSERVABILITY.md for the schema).
struct Event {
  EventKind kind = EventKind::Install;
  std::uint64_t cycle = 0;
  std::uint32_t core = 0;
  std::uint32_t device = 0;
  std::uint64_t arg = 0;

  bool operator==(const Event&) const = default;
};

class EventJournal {
 public:
  explicit EventJournal(std::size_t capacity = 1024);

  void record(const Event& event);

  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (including evicted ones).
  std::uint64_t recorded() const;
  /// Events that were pushed out of the bounded ring.
  std::uint64_t evicted() const;

  /// Copy of the retained events, oldest first.
  std::vector<Event> events() const;

  /// Atomic (single-lock) copy of the retained events plus the lifetime
  /// recorded count, for cursor-based streaming readers: the index of
  /// the first returned event is exactly `recorded - events.size()`.
  std::vector<Event> events_and_recorded(std::uint64_t& recorded) const;

  /// Serialize the retained events as a JSON array (oldest first).
  void append_json(JsonWriter& writer) const;

 private:
  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace sdmmon::obs

#endif  // SDMMON_SRC_OBS_JOURNAL_HPP
