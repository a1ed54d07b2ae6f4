#include "crypto/cert.hpp"

namespace sdmmon::crypto {

const char* cert_status_name(CertStatus status) {
  switch (status) {
    case CertStatus::Ok: return "ok";
    case CertStatus::BadSignature: return "bad-signature";
    case CertStatus::NotYetValid: return "not-yet-valid";
    case CertStatus::Expired: return "expired";
    case CertStatus::WrongRole: return "wrong-role";
  }
  return "?";
}

util::Bytes Certificate::tbs_bytes() const {
  util::ByteWriter w;
  w.str(subject);
  w.u8(static_cast<std::uint8_t>(role));
  w.u64(serial);
  w.u64(valid_from);
  w.u64(valid_to);
  w.blob(subject_key.serialize());
  w.str(issuer);
  return w.take();
}

util::Bytes Certificate::serialize() const {
  util::ByteWriter w;
  w.blob(tbs_bytes());
  w.blob(signature);
  return w.take();
}

Certificate Certificate::deserialize(std::span<const std::uint8_t> data) {
  util::ByteReader outer(data);
  util::Bytes tbs = outer.blob();
  util::Bytes sig = outer.blob();

  util::ByteReader r(tbs);
  Certificate cert;
  cert.subject = r.str();
  std::uint8_t role = r.u8();
  if (role > static_cast<std::uint8_t>(CertRole::Device)) {
    throw util::DecodeError("certificate: bad role");
  }
  cert.role = static_cast<CertRole>(role);
  cert.serial = r.u64();
  cert.valid_from = r.u64();
  cert.valid_to = r.u64();
  cert.subject_key = RsaPublicKey::deserialize(r.blob());
  cert.issuer = r.str();
  cert.signature = std::move(sig);
  return cert;
}

Certificate issue_certificate(const std::string& subject, CertRole role,
                              std::uint64_t serial, std::uint64_t valid_from,
                              std::uint64_t valid_to,
                              const RsaPublicKey& subject_key,
                              const std::string& issuer,
                              const RsaPrivateKey& issuer_key) {
  Certificate cert;
  cert.subject = subject;
  cert.role = role;
  cert.serial = serial;
  cert.valid_from = valid_from;
  cert.valid_to = valid_to;
  cert.subject_key = subject_key;
  cert.issuer = issuer;
  cert.signature = rsa_sign(issuer_key, cert.tbs_bytes());
  return cert;
}

CertStatus verify_certificate(const Certificate& cert,
                              const RsaPublicKey& issuer_key,
                              std::uint64_t now) {
  if (!rsa_verify(issuer_key, cert.tbs_bytes(), cert.signature)) {
    return CertStatus::BadSignature;
  }
  if (now < cert.valid_from) return CertStatus::NotYetValid;
  if (now > cert.valid_to) return CertStatus::Expired;
  return CertStatus::Ok;
}

CertStatus verify_certificate(const Certificate& cert,
                              const RsaPublicKey& issuer_key,
                              std::uint64_t now, CertRole expected_role) {
  CertStatus status = verify_certificate(cert, issuer_key, now);
  if (status != CertStatus::Ok) return status;
  if (cert.role != expected_role) return CertStatus::WrongRole;
  return CertStatus::Ok;
}

}  // namespace sdmmon::crypto
