#include "sdmmon/channel.hpp"

namespace sdmmon::protocol {

ChannelResult DirectChannel::send_install(NetworkProcessorDevice& device,
                                          const WirePackage& wire,
                                          std::uint64_t now) {
  util::Bytes bytes = wire.serialize();
  return {ChannelStatus::Delivered, device.install_bytes(bytes, now)};
}

ChannelResult LossyChannel::send_install(NetworkProcessorDevice& device,
                                         const WirePackage& wire,
                                         std::uint64_t now) {
  if (faults_.drop_message()) return {ChannelStatus::RequestLost, {}};

  util::Bytes bytes = wire.serialize();
  faults_.maybe_corrupt(bytes);
  faults_.maybe_truncate(bytes);

  // Delay shifts the device-side arrival time; skew shifts the device's
  // own clock. Both feed the certificate-validity check.
  std::uint64_t device_now = faults_.skew_clock(now + faults_.delay_message());
  InstallStatus status = device.install_bytes(bytes, device_now);

  if (faults_.drop_message()) return {ChannelStatus::ReplyLost, status};
  return {ChannelStatus::Delivered, status};
}

}  // namespace sdmmon::protocol
