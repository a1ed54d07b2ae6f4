#include "sdmmon/package.hpp"

#include "crypto/aes.hpp"

namespace sdmmon::protocol {

namespace {
constexpr std::size_t kAesKeyBytes = 16;  // AES-128, as in the prototype
}

util::Bytes PackagePayload::serialize() const {
  util::ByteWriter w;
  w.blob(binary.serialize());
  w.blob(graph.serialize());
  w.u32(hash_param);
  w.u64(sequence);
  w.u32(pad_bytes);
  // Deterministic padding content (zeros) sized by pad_bytes.
  w.raw(util::Bytes(pad_bytes, 0));
  return w.take();
}

PackagePayload PackagePayload::deserialize(
    std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  PackagePayload payload;
  payload.binary = isa::Program::deserialize(r.blob());
  payload.graph = monitor::MonitoringGraph::deserialize(r.blob());
  payload.hash_param = r.u32();
  payload.sequence = r.u64();
  payload.pad_bytes = r.u32();
  (void)r.raw(payload.pad_bytes);
  return payload;
}

util::Bytes WirePackage::serialize() const {
  util::ByteWriter w;
  w.blob(ciphertext);
  w.blob(wrapped_key);
  w.raw(std::span<const std::uint8_t>(iv.data(), iv.size()));
  w.blob(operator_cert.serialize());
  return w.take();
}

WirePackage WirePackage::deserialize(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  WirePackage wire;
  wire.ciphertext = r.blob();
  wire.wrapped_key = r.blob();
  util::Bytes iv = r.raw(16);
  std::copy(iv.begin(), iv.end(), wire.iv.begin());
  wire.operator_cert = crypto::Certificate::deserialize(r.blob());
  return wire;
}

const char* open_status_name(OpenStatus status) {
  switch (status) {
    case OpenStatus::Ok: return "ok";
    case OpenStatus::WrongDevice: return "wrong-device";
    case OpenStatus::CorruptCiphertext: return "corrupt-ciphertext";
    case OpenStatus::BadSignature: return "bad-signature";
    case OpenStatus::Malformed: return "malformed";
  }
  return "?";
}

WirePackage seal_package(const PackagePayload& payload,
                         const crypto::RsaPrivateKey& operator_priv,
                         const crypto::Certificate& operator_cert,
                         const crypto::RsaPublicKey& device_pub,
                         crypto::Drbg& drbg) {
  util::Bytes plain = payload.serialize();
  util::Bytes signature = crypto::rsa_sign(operator_priv, plain);

  // payload || signature under AES-CBC with fresh key and IV.
  util::ByteWriter inner;
  inner.blob(plain);
  inner.blob(signature);

  util::Bytes k_sym = drbg.bytes(kAesKeyBytes);
  WirePackage wire;
  drbg.fill(wire.iv);
  wire.ciphertext = crypto::aes_cbc_encrypt(k_sym, wire.iv, inner.bytes());
  wire.wrapped_key = crypto::rsa_encrypt(device_pub, k_sym, drbg);
  wire.operator_cert = operator_cert;
  return wire;
}

OpenStatus unwrap_package_key(const WirePackage& wire,
                              const crypto::RsaPrivateKey& device_priv,
                              util::Bytes& k_sym) {
  auto unwrapped = crypto::rsa_decrypt(device_priv, wire.wrapped_key);
  if (!unwrapped || unwrapped->size() != kAesKeyBytes) {
    return OpenStatus::WrongDevice;
  }
  k_sym = std::move(*unwrapped);
  return OpenStatus::Ok;
}

OpenStatus decrypt_package(const WirePackage& wire,
                           std::span<const std::uint8_t> k_sym,
                           util::Bytes& inner) {
  try {
    inner = crypto::aes_cbc_decrypt(k_sym, wire.iv, wire.ciphertext);
  } catch (const crypto::AesError&) {
    return OpenStatus::CorruptCiphertext;
  }
  return OpenStatus::Ok;
}

OpenStatus verify_package(std::span<const std::uint8_t> inner,
                          const crypto::RsaPublicKey& operator_pub,
                          std::optional<PackagePayload>& payload) {
  util::Bytes plain, signature;
  try {
    util::ByteReader r(inner);
    plain = r.blob();
    signature = r.blob();
  } catch (const util::DecodeError&) {
    return OpenStatus::CorruptCiphertext;
  }

  if (!crypto::rsa_verify(operator_pub, plain, signature)) {
    return OpenStatus::BadSignature;
  }

  try {
    payload = PackagePayload::deserialize(plain);
  } catch (const std::exception&) {
    return OpenStatus::Malformed;
  }
  return OpenStatus::Ok;
}

OpenResult open_package(const WirePackage& wire,
                        const crypto::RsaPrivateKey& device_priv,
                        const crypto::RsaPublicKey& operator_pub) {
  OpenResult result;
  util::Bytes k_sym, inner;
  result.status = unwrap_package_key(wire, device_priv, k_sym);
  if (result.status != OpenStatus::Ok) return result;
  result.status = decrypt_package(wire, k_sym, inner);
  if (result.status != OpenStatus::Ok) return result;
  result.status = verify_package(inner, operator_pub, result.payload);
  return result;
}

}  // namespace sdmmon::protocol
