#include "util/fault.hpp"

namespace sdmmon::util {

bool FaultInjector::maybe_corrupt(Bytes& buffer) {
  ++stats_.buffers_seen;
  if (buffer.empty() || !rng_.chance(profile_.bit_flip_rate)) return false;
  std::uint32_t flips =
      profile_.max_bit_flips <= 1
          ? 1
          : static_cast<std::uint32_t>(rng_.range(1, profile_.max_bit_flips));
  flip_bits(buffer, flips);
  return true;
}

bool FaultInjector::maybe_truncate(Bytes& buffer) {
  if (buffer.empty() || !rng_.chance(profile_.truncation_rate)) return false;
  truncate(buffer);
  return true;
}

bool FaultInjector::drop_message() {
  ++stats_.messages_seen;
  if (!rng_.chance(profile_.drop_rate)) return false;
  ++stats_.drops;
  return true;
}

std::uint64_t FaultInjector::delay_message() {
  if (profile_.max_delay_s == 0 || !rng_.chance(profile_.delay_rate)) return 0;
  ++stats_.delays;
  return rng_.range(1, profile_.max_delay_s);
}

std::uint64_t FaultInjector::skew_clock(std::uint64_t now) {
  if (!rng_.chance(profile_.clock_skew_rate)) return now;
  ++stats_.clock_skews;
  if (profile_.clock_skew_s >= 0) {
    return now + static_cast<std::uint64_t>(profile_.clock_skew_s);
  }
  std::uint64_t back = static_cast<std::uint64_t>(-profile_.clock_skew_s);
  return now > back ? now - back : 0;
}

void FaultInjector::flip_bit(Bytes& buffer) { flip_bits(buffer, 1); }

void FaultInjector::flip_bits(Bytes& buffer, std::uint32_t flips) {
  if (buffer.empty() || flips == 0) return;
  for (std::uint32_t i = 0; i < flips; ++i) {
    std::uint64_t bit = rng_.below(buffer.size() * 8);
    buffer[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++stats_.bits_flipped;
  }
  ++stats_.buffers_corrupted;
}

void FaultInjector::truncate(Bytes& buffer) {
  if (buffer.empty()) return;
  buffer.resize(rng_.below(buffer.size()));
  ++stats_.truncations;
}

}  // namespace sdmmon::util
