#include "fleet/device_model.hpp"

namespace sdmmon::fleet {

double ModeledDevice::uniform() {
  // One splitmix step per draw: stateless apart from the counter, so a
  // device's decision sequence depends only on (seed, draw index) -- not
  // on event interleaving with other devices.
  const std::uint64_t v = mix_seed(seed, ++draws);
  return static_cast<double>(v >> 11) * 0x1.0p-53;
}

std::uint64_t ModeledDevice::backoff_key() const {
  return mix_seed(seed, 0xB0FFu);
}

void ModeledDevice::begin_campaign(std::uint16_t wave_index) {
  wave = wave_index;
  attempts = 0;
  backoff_spent_s = 0;
  state = DeviceState::Scheduled;
}

}  // namespace sdmmon::fleet
