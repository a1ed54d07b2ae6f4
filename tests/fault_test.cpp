#include "util/fault.hpp"

#include <gtest/gtest.h>

namespace sdmmon::util {
namespace {

TEST(Fault, DefaultInjectorIsTransparent) {
  FaultInjector inject;
  Bytes buffer = {1, 2, 3, 4};
  Bytes original = buffer;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inject.maybe_corrupt(buffer));
    EXPECT_FALSE(inject.maybe_truncate(buffer));
    EXPECT_FALSE(inject.drop_message());
    EXPECT_EQ(inject.delay_message(), 0u);
    EXPECT_EQ(inject.skew_clock(12345), 12345u);
  }
  EXPECT_EQ(buffer, original);
  EXPECT_EQ(inject.stats().faults_injected(), 0u);
}

TEST(Fault, DeterministicReplay) {
  FaultProfile profile;
  profile.seed = 42;
  profile.bit_flip_rate = 0.3;
  profile.truncation_rate = 0.2;
  profile.drop_rate = 0.25;
  profile.delay_rate = 0.1;
  profile.clock_skew_rate = 0.15;
  profile.clock_skew_s = -7;

  auto run = [&] {
    FaultInjector inject(profile);
    std::vector<std::uint64_t> trace;
    Bytes buffer(64, 0xAB);
    for (int i = 0; i < 200; ++i) {
      Bytes b = buffer;
      inject.maybe_corrupt(b);
      inject.maybe_truncate(b);
      trace.push_back(b.size());
      trace.push_back(b.empty() ? 0 : b[0]);
      trace.push_back(inject.drop_message() ? 1 : 0);
      trace.push_back(inject.delay_message());
      trace.push_back(inject.skew_clock(1'000'000));
    }
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Fault, FlipBitChangesExactlyOneBit) {
  FaultInjector inject(FaultProfile{.seed = 7});
  Bytes buffer(32, 0);
  inject.flip_bit(buffer);
  int set_bits = 0;
  for (std::uint8_t b : buffer) set_bits += __builtin_popcount(b);
  EXPECT_EQ(set_bits, 1);
  EXPECT_EQ(inject.stats().bits_flipped, 1u);
  EXPECT_EQ(inject.stats().buffers_corrupted, 1u);
}

TEST(Fault, TruncateStrictlyShortens) {
  FaultInjector inject(FaultProfile{.seed = 9});
  for (int i = 0; i < 50; ++i) {
    Bytes buffer(1 + static_cast<std::size_t>(i), 0xCC);
    std::size_t before = buffer.size();
    inject.truncate(buffer);
    EXPECT_LT(buffer.size(), before);
  }
  Bytes empty;
  inject.truncate(empty);  // no-op, no crash
  EXPECT_TRUE(empty.empty());
}

TEST(Fault, ClockSkewSaturatesAtZero) {
  FaultProfile profile;
  profile.clock_skew_rate = 1.0;
  profile.clock_skew_s = -1000;
  FaultInjector inject(profile);
  EXPECT_EQ(inject.skew_clock(10), 0u);
  EXPECT_EQ(inject.skew_clock(5000), 4000u);

  profile.clock_skew_s = 250;
  FaultInjector forward(profile);
  EXPECT_EQ(forward.skew_clock(10), 260u);
}

TEST(Fault, RatesRoughlyHonored) {
  FaultProfile profile;
  profile.seed = 11;
  profile.drop_rate = 0.10;
  FaultInjector inject(profile);
  int drops = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (inject.drop_message()) ++drops;
  }
  EXPECT_GT(drops, trials / 20);   // > 5%
  EXPECT_LT(drops, trials * 3 / 20);  // < 15%
  EXPECT_EQ(inject.stats().drops, static_cast<std::uint64_t>(drops));
  EXPECT_EQ(inject.stats().messages_seen, static_cast<std::uint64_t>(trials));
}

TEST(Fault, MaybeCorruptRespectsMaxBitFlips) {
  FaultProfile profile;
  profile.seed = 5;
  profile.bit_flip_rate = 1.0;
  profile.max_bit_flips = 4;
  FaultInjector inject(profile);
  Bytes buffer(128, 0);
  ASSERT_TRUE(inject.maybe_corrupt(buffer));
  int set_bits = 0;
  for (std::uint8_t b : buffer) set_bits += __builtin_popcount(b);
  EXPECT_GE(set_bits, 1);
  EXPECT_LE(set_bits, 4);
}

}  // namespace
}  // namespace sdmmon::util
