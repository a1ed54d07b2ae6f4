// Instrumented install pipeline: runs the exact security steps of Table 2
// (download -> certificate check -> K_sym unwrap -> AES package decrypt ->
// signature verify), recording primitive-op counts per step and converting
// them to modeled Nios II seconds. Used by the Table 2 bench and by the
// install-scaling ablation.
#ifndef SDMMON_SDMMON_TIMED_INSTALL_HPP
#define SDMMON_SDMMON_TIMED_INSTALL_HPP

#include "sdmmon/package.hpp"
#include "sdmmon/timing.hpp"

namespace sdmmon::protocol {

struct TimedInstallResult {
  bool ok = false;
  OpenStatus open_status = OpenStatus::Malformed;
  crypto::CertStatus cert_status = crypto::CertStatus::BadSignature;
  std::size_t wire_bytes = 0;

  // Per-step primitive-op counts.
  crypto::OpCounters cert_ops;
  crypto::OpCounters unwrap_ops;
  crypto::OpCounters aes_ops;
  crypto::OpCounters verify_ops;

  /// Modeled Nios II seconds for each step (Table 2 rows).
  InstallTiming timing(const NiosTimingModel& model) const;

  /// Host wall-clock seconds per step, for the raw-host comparison column.
  double host_cert_s = 0;
  double host_unwrap_s = 0;
  double host_aes_s = 0;
  double host_verify_s = 0;
};

/// Execute and instrument the device-side pipeline: the certificate check
/// and the open_package steps NetworkProcessorDevice::install runs, with
/// per-step costs. `ok` and `open_status` agree with open_package.
TimedInstallResult timed_install(const WirePackage& wire,
                                 const crypto::RsaPrivateKey& device_priv,
                                 const crypto::RsaPublicKey& manufacturer_key,
                                 std::uint64_t now);

}  // namespace sdmmon::protocol

#endif  // SDMMON_SDMMON_TIMED_INSTALL_HPP
