// Deterministic, seeded fault injection for robustness campaigns. One
// FaultInjector instance models everything that can go wrong between the
// operator's console and a core's program store: bit flips and truncation
// of byte buffers (wire packages, graph bitstreams, packet payloads),
// corruption of program-store words, loss/delay of operator->device
// messages, and skew of the clock a device uses to judge certificate
// validity. Every decision flows from one xoshiro stream, so a campaign
// with a given profile+seed replays bit-for-bit -- tests assert on exact
// convergence behavior, not on luck.
#ifndef SDMMON_UTIL_FAULT_HPP
#define SDMMON_UTIL_FAULT_HPP

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sdmmon::util {

/// What faults to inject and how often. All rates are probabilities in
/// [0, 1] evaluated independently per opportunity; the default profile is
/// fully transparent (all rates zero), so code can unconditionally route
/// through an injector.
struct FaultProfile {
  std::uint64_t seed = 0xFA17;

  // Byte-buffer faults (wire packages, bitstreams, packet payloads).
  double bit_flip_rate = 0.0;    // chance a buffer gets bits flipped
  std::uint32_t max_bit_flips = 1;  // flips applied when a buffer is hit
  double truncation_rate = 0.0;  // chance a buffer loses a suffix

  // Message-channel faults (operator -> device and the reply path).
  double drop_rate = 0.0;   // chance a message vanishes
  double delay_rate = 0.0;  // chance a message is delayed, not lost
  std::uint64_t max_delay_s = 30;  // delay drawn uniformly from [1, max]

  // Clock faults (certificate-validity checks at the device).
  double clock_skew_rate = 0.0;  // chance a timestamp is skewed
  std::int64_t clock_skew_s = 0;  // signed skew applied when it fires
};

/// Counters for everything the injector actually did; lets campaigns
/// report "converged despite N corrupted packages and M lost messages".
struct FaultStats {
  std::uint64_t buffers_seen = 0;
  std::uint64_t buffers_corrupted = 0;
  std::uint64_t bits_flipped = 0;
  std::uint64_t truncations = 0;
  std::uint64_t messages_seen = 0;
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t clock_skews = 0;

  std::uint64_t faults_injected() const {
    return buffers_corrupted + truncations + drops + delays + clock_skews;
  }
};

class FaultInjector {
 public:
  /// Default-constructed injector is transparent: no profile rates, so
  /// every maybe_* call is a no-op.
  FaultInjector() : FaultInjector(FaultProfile{}) {}
  explicit FaultInjector(FaultProfile profile)
      : profile_(profile), rng_(profile.seed) {}

  const FaultProfile& profile() const { return profile_; }
  const FaultStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }

  // -- Probabilistic faults (gated by the profile rates) ----------------

  /// Maybe flip up to max_bit_flips random bits in `buffer`; returns true
  /// if the buffer was modified.
  bool maybe_corrupt(Bytes& buffer);

  /// Maybe truncate `buffer` to a random strictly-shorter length.
  bool maybe_truncate(Bytes& buffer);

  /// One operator->device (or reply) message: true means it was lost.
  bool drop_message();

  /// Seconds of delay for a message (0 = delivered on time).
  std::uint64_t delay_message();

  /// The timestamp a device would use for certificate validity, possibly
  /// skewed. Saturates at 0 rather than wrapping for negative skews.
  std::uint64_t skew_clock(std::uint64_t now);

  // -- Targeted faults (unconditional; used to build specific scenarios) -

  /// Flip exactly one random bit. No-op on an empty buffer.
  void flip_bit(Bytes& buffer);

  /// Flip `flips` random bits (with replacement). No-op on empty buffer.
  void flip_bits(Bytes& buffer, std::uint32_t flips);

  /// Drop a random non-empty suffix (result is strictly shorter, possibly
  /// empty). No-op on an empty buffer.
  void truncate(Bytes& buffer);


 private:
  FaultProfile profile_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace sdmmon::util

#endif  // SDMMON_UTIL_FAULT_HPP
