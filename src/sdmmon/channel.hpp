// The operator->device management channel. The paper assumes packages
// simply arrive; a production fleet campaign cannot -- management links
// share fate with the data plane they reprogram. Channel abstracts one
// install exchange (request out, status reply back) so campaigns can run
// over a perfect in-process link (DirectChannel) or a link with injected
// loss, corruption, delay, and clock skew (LossyChannel), with identical
// operator-side code. Both channels transmit the *serialized* wire bytes
// and reparse on the device side, so every campaign exercises the real
// codec path, not in-memory object passing.
#ifndef SDMMON_SDMMON_CHANNEL_HPP
#define SDMMON_SDMMON_CHANNEL_HPP

#include "sdmmon/entities.hpp"
#include "util/fault.hpp"

namespace sdmmon::protocol {

/// What the operator observed for one install exchange.
enum class ChannelStatus : std::uint8_t {
  Delivered,    // request arrived, reply came back: install_status valid
  RequestLost,  // package never reached the device
  ReplyLost,    // device processed the package but the reply vanished --
                // the operator cannot distinguish this from RequestLost
                // and must retry (re-sealing keeps the retry fresh)
};

struct ChannelResult {
  ChannelStatus status = ChannelStatus::RequestLost;
  /// Device-side verdict; only meaningful when status == Delivered.
  InstallStatus install_status = InstallStatus::CorruptPackage;
};

class Channel {
 public:
  virtual ~Channel() = default;

  /// Perform one install exchange with `device` at operator time `now`.
  virtual ChannelResult send_install(NetworkProcessorDevice& device,
                                     const WirePackage& wire,
                                     std::uint64_t now) = 0;
};

/// Reliable in-process channel: serialize -> deserialize -> install.
class DirectChannel : public Channel {
 public:
  ChannelResult send_install(NetworkProcessorDevice& device,
                             const WirePackage& wire,
                             std::uint64_t now) override;
};

/// Channel wrapping a FaultInjector: requests can be dropped, bit-flipped,
/// truncated, or delayed, replies can be dropped, and the device-side
/// clock (used for certificate validity) can be skewed. The injector is
/// borrowed, so a test can share one seeded injector across the campaign
/// and inspect its fault statistics afterwards.
class LossyChannel : public Channel {
 public:
  explicit LossyChannel(util::FaultInjector& faults) : faults_(faults) {}

  ChannelResult send_install(NetworkProcessorDevice& device,
                             const WirePackage& wire,
                             std::uint64_t now) override;

 private:
  util::FaultInjector& faults_;
};

}  // namespace sdmmon::protocol

#endif  // SDMMON_SDMMON_CHANNEL_HPP
