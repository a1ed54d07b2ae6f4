// Lightweight certificates for the SDMMon chain of trust: the manufacturer
// signs the network operator's public key, and the device (which holds the
// manufacturer's public key as root of trust) verifies the chain before
// accepting any install package (paper Section 3.1).
#ifndef SDMMON_CRYPTO_CERT_HPP
#define SDMMON_CRYPTO_CERT_HPP

#include <cstdint>
#include <string>

#include "crypto/rsa.hpp"

namespace sdmmon::crypto {

/// Role of the certified key within the SDMMon entity model.
enum class CertRole : std::uint8_t {
  Manufacturer = 0,
  NetworkOperator = 1,
  Device = 2,
};

/// A signed binding of (subject name, role, public key, validity window).
struct Certificate {
  std::string subject;
  CertRole role = CertRole::NetworkOperator;
  std::uint64_t serial = 0;
  std::uint64_t valid_from = 0;  // seconds since epoch
  std::uint64_t valid_to = 0;
  RsaPublicKey subject_key;
  std::string issuer;
  util::Bytes signature;  // issuer's RSA signature over tbs_bytes()

  /// The to-be-signed serialization (everything but the signature).
  util::Bytes tbs_bytes() const;

  util::Bytes serialize() const;
  static Certificate deserialize(std::span<const std::uint8_t> data);
};

/// Issue a certificate: sign `tbs` fields with the issuer's private key.
Certificate issue_certificate(const std::string& subject, CertRole role,
                              std::uint64_t serial, std::uint64_t valid_from,
                              std::uint64_t valid_to,
                              const RsaPublicKey& subject_key,
                              const std::string& issuer,
                              const RsaPrivateKey& issuer_key);

/// Result of certificate validation, for precise error reporting in tests
/// and the install protocol's audit log.
enum class CertStatus {
  Ok,
  BadSignature,
  NotYetValid,
  Expired,
  WrongRole,
};

const char* cert_status_name(CertStatus status);

/// Verify signature with `issuer_key` and check the validity window at
/// time `now`; if `expected_role` is set, the role must match.
CertStatus verify_certificate(const Certificate& cert,
                              const RsaPublicKey& issuer_key,
                              std::uint64_t now);
CertStatus verify_certificate(const Certificate& cert,
                              const RsaPublicKey& issuer_key,
                              std::uint64_t now, CertRole expected_role);

}  // namespace sdmmon::crypto

#endif  // SDMMON_CRYPTO_CERT_HPP
