// SDMMon install package (paper Figure 3, "at programming time"):
//
//   payload   = binary || monitoring graph || 32-bit hash parameter
//   signature = RSA-sign(operator_priv, payload)
//   K_sym     = fresh AES key; wrapped = RSA-encrypt(device_pub, K_sym)
//   wire      = AES-CBC(K_sym, payload || signature) || wrapped || IV
//
// SR1 (authenticity) comes from the signature + the operator certificate
// chain; SR3 (confidentiality) from the AES encryption; SR4 (device
// binding) from wrapping K_sym with the *device's* public key -- only the
// intended router can recover the payload.
#ifndef SDMMON_SDMMON_PACKAGE_HPP
#define SDMMON_SDMMON_PACKAGE_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/cert.hpp"
#include "crypto/drbg.hpp"
#include "crypto/rsa.hpp"
#include "isa/program.hpp"
#include "monitor/graph.hpp"

namespace sdmmon::protocol {

/// Plaintext contents of an install package.
struct PackagePayload {
  isa::Program binary;
  monitor::MonitoringGraph graph;
  std::uint32_t hash_param = 0;
  std::uint64_t sequence = 0;   // anti-replay install counter
  /// Optional padding (models the paper's larger production binaries so
  /// the timing benches can reproduce Table 2 at paper scale).
  std::uint32_t pad_bytes = 0;

  util::Bytes serialize() const;
  static PackagePayload deserialize(std::span<const std::uint8_t> bytes);
};

/// Encrypted-and-signed wire form, as transmitted to the router.
struct WirePackage {
  util::Bytes ciphertext;     // AES-CBC(payload || signature)
  util::Bytes wrapped_key;    // RSA(device_pub, K_sym)
  std::array<std::uint8_t, 16> iv{};
  crypto::Certificate operator_cert;

  util::Bytes serialize() const;
  static WirePackage deserialize(std::span<const std::uint8_t> bytes);

  std::size_t wire_size() const { return serialize().size(); }
};

/// Build a wire package: sign payload with the operator key, encrypt with
/// a fresh K_sym drawn from `drbg`, wrap K_sym to `device_pub`.
WirePackage seal_package(const PackagePayload& payload,
                         const crypto::RsaPrivateKey& operator_priv,
                         const crypto::Certificate& operator_cert,
                         const crypto::RsaPublicKey& device_pub,
                         crypto::Drbg& drbg);

/// Device-side outcome of open_package.
enum class OpenStatus : std::uint8_t {
  Ok,
  WrongDevice,       // K_sym unwrap failed (package sealed to another router)
  CorruptCiphertext, // AES decrypt / padding failure
  BadSignature,      // operator signature check failed
  Malformed,         // payload failed to parse
};

const char* open_status_name(OpenStatus status);

struct OpenResult {
  OpenStatus status = OpenStatus::Malformed;
  std::optional<PackagePayload> payload;  // set when status == Ok
};

/// Decrypt and verify a wire package with the device's private key and the
/// operator public key (caller has already validated the certificate).
/// Runs the three steps below in order and stops at the first failure.
OpenResult open_package(const WirePackage& wire,
                        const crypto::RsaPrivateKey& device_priv,
                        const crypto::RsaPublicKey& operator_pub);

// The steps of open_package, exposed so the instrumented pipeline
// (sdmmon/timed_install.hpp) can time each one. Each returns
// OpenStatus::Ok and fills its output, or the status open_package reports.

/// Unwrap K_sym with the device key; anything but an AES-128 key is
/// WrongDevice.
OpenStatus unwrap_package_key(const WirePackage& wire,
                              const crypto::RsaPrivateKey& device_priv,
                              util::Bytes& k_sym);
/// AES-CBC decrypt the package body under K_sym.
OpenStatus decrypt_package(const WirePackage& wire,
                           std::span<const std::uint8_t> k_sym,
                           util::Bytes& inner);
/// Split the body into payload and signature, verify the signature, and
/// decode the payload.
OpenStatus verify_package(std::span<const std::uint8_t> inner,
                          const crypto::RsaPublicKey& operator_pub,
                          std::optional<PackagePayload>& payload);

}  // namespace sdmmon::protocol

#endif  // SDMMON_SDMMON_PACKAGE_HPP
