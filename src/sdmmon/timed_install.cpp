#include "sdmmon/timed_install.hpp"

#include <chrono>
#include <optional>

namespace sdmmon::protocol {

namespace {

using Clock = std::chrono::steady_clock;

/// Run one pipeline step, recording its primitive ops and host seconds.
template <typename Step>
auto run_step(crypto::OpCounters& ops, double& host_s, Step step) {
  crypto::OpScope scope;
  const auto start = Clock::now();
  auto status = step();
  host_s = std::chrono::duration<double>(Clock::now() - start).count();
  ops = scope.delta();
  return status;
}

}  // namespace

InstallTiming TimedInstallResult::timing(const NiosTimingModel& model) const {
  InstallTiming t;
  t.download_s = model.download_seconds(wire_bytes);
  t.cert_check_s = model.step_seconds(cert_ops);
  t.rsa_unwrap_s = model.step_seconds(unwrap_ops);
  t.aes_decrypt_s = model.step_seconds(aes_ops);
  t.verify_sig_s = model.step_seconds(verify_ops);
  return t;
}

TimedInstallResult timed_install(const WirePackage& wire,
                                 const crypto::RsaPrivateKey& device_priv,
                                 const crypto::RsaPublicKey& manufacturer_key,
                                 std::uint64_t now) {
  TimedInstallResult result;
  result.wire_bytes = wire.wire_size();

  // Step: check manufacturer certificate of operator's public key.
  result.cert_status = run_step(result.cert_ops, result.host_cert_s, [&] {
    return crypto::verify_certificate(wire.operator_cert, manufacturer_key,
                                      now, crypto::CertRole::NetworkOperator);
  });
  if (result.cert_status != crypto::CertStatus::Ok) return result;

  // The open_package steps: unwrap K_sym with the router's private key,
  // decrypt the package with K_sym, verify the operator's signature.
  util::Bytes k_sym, inner;
  std::optional<PackagePayload> payload;
  result.open_status = run_step(result.unwrap_ops, result.host_unwrap_s, [&] {
    return unwrap_package_key(wire, device_priv, k_sym);
  });
  if (result.open_status != OpenStatus::Ok) return result;
  result.open_status = run_step(result.aes_ops, result.host_aes_s, [&] {
    return decrypt_package(wire, k_sym, inner);
  });
  if (result.open_status != OpenStatus::Ok) return result;
  result.open_status = run_step(result.verify_ops, result.host_verify_s, [&] {
    return verify_package(inner, wire.operator_cert.subject_key, payload);
  });
  result.ok = result.open_status == OpenStatus::Ok;
  return result;
}

}  // namespace sdmmon::protocol
