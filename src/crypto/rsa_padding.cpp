#include "crypto/rsa_padding.hpp"

#include <algorithm>
#include <cstring>

namespace sdmmon::crypto {

namespace {

constexpr std::size_t kHashLen = kSha256DigestSize;

void xor_into(std::uint8_t* dst, std::span<const std::uint8_t> mask) {
  for (std::size_t i = 0; i < mask.size(); ++i) dst[i] ^= mask[i];
}

}  // namespace

util::Bytes mgf1_sha256(std::span<const std::uint8_t> seed, std::size_t len) {
  util::Bytes out;
  out.reserve(len + kHashLen);
  std::uint32_t counter = 0;
  while (out.size() < len) {
    Sha256 h;
    h.update(seed);
    std::uint8_t ctr_be[4];
    util::store_be32(counter++, ctr_be);
    h.update(std::span<const std::uint8_t>(ctr_be, 4));
    auto digest = h.finish();
    out.insert(out.end(), digest.begin(), digest.end());
  }
  out.resize(len);
  return out;
}

util::Bytes rsa_oaep_encrypt(const RsaPublicKey& key,
                             std::span<const std::uint8_t> message,
                             Drbg& drbg) {
  const std::size_t k = key.modulus_bytes();
  if (message.size() + 2 * kHashLen + 2 > k) {
    throw RsaError("message too long for OAEP");
  }

  // DB = lHash || PS (zeros) || 0x01 || M, where lHash = SHA-256("").
  const std::size_t db_len = k - kHashLen - 1;
  util::Bytes db(db_len, 0);
  auto l_hash = Sha256::hash("");
  std::memcpy(db.data(), l_hash.data(), kHashLen);
  db[db_len - message.size() - 1] = 0x01;
  // std::copy, not memcpy: an empty message may carry a null data().
  std::copy(message.begin(), message.end(),
            db.begin() + static_cast<std::ptrdiff_t>(db_len - message.size()));

  util::Bytes seed = drbg.bytes(kHashLen);
  xor_into(db.data(), mgf1_sha256(seed, db_len));        // maskedDB
  xor_into(seed.data(), mgf1_sha256(db, kHashLen));      // maskedSeed

  util::Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.insert(em.end(), seed.begin(), seed.end());
  em.insert(em.end(), db.begin(), db.end());

  return rsa_public_op(key, BigUint::from_bytes_be(em)).to_bytes_be(k);
}

std::optional<util::Bytes> rsa_oaep_decrypt(
    const RsaPrivateKey& key, std::span<const std::uint8_t> ciphertext) {
  const std::size_t k = key.modulus_bytes();
  if (ciphertext.size() != k || k < 2 * kHashLen + 2) return std::nullopt;
  BigUint c = BigUint::from_bytes_be(ciphertext);
  if (c >= key.n) return std::nullopt;

  util::Bytes em = rsa_private_op(key, c).to_bytes_be(k);
  if (em[0] != 0x00) return std::nullopt;

  const std::size_t db_len = k - kHashLen - 1;
  util::Bytes seed(em.begin() + 1, em.begin() + 1 + kHashLen);
  util::Bytes db(em.begin() + 1 + kHashLen, em.end());

  xor_into(seed.data(), mgf1_sha256(db, kHashLen));
  xor_into(db.data(), mgf1_sha256(seed, db_len));

  auto l_hash = Sha256::hash("");
  if (!util::ct_equal(std::span<const std::uint8_t>(db.data(), kHashLen),
                      l_hash)) {
    return std::nullopt;
  }
  // Find the 0x01 separator after the zero padding.
  std::size_t sep = kHashLen;
  while (sep < db.size() && db[sep] == 0x00) ++sep;
  if (sep == db.size() || db[sep] != 0x01) return std::nullopt;
  return util::Bytes(db.begin() + static_cast<std::ptrdiff_t>(sep) + 1,
                     db.end());
}

util::Bytes rsa_pss_sign(const RsaPrivateKey& key,
                         std::span<const std::uint8_t> message, Drbg& drbg) {
  const std::size_t k = key.modulus_bytes();
  const std::size_t em_bits = key.n.bit_length() - 1;
  const std::size_t em_len = (em_bits + 7) / 8;
  if (em_len < 2 * kHashLen + 2) throw RsaError("modulus too small for PSS");

  auto m_hash = Sha256::hash(message);
  util::Bytes salt = drbg.bytes(kHashLen);

  // M' = 8 zero bytes || mHash || salt ; H = SHA-256(M').
  Sha256 h;
  std::uint8_t zeros[8] = {};
  h.update(std::span<const std::uint8_t>(zeros, 8));
  h.update(m_hash);
  h.update(salt);
  auto h_digest = h.finish();

  // DB = PS (zeros) || 0x01 || salt.
  const std::size_t db_len = em_len - kHashLen - 1;
  util::Bytes db(db_len, 0);
  db[db_len - kHashLen - 1] = 0x01;
  std::memcpy(db.data() + db_len - kHashLen, salt.data(), kHashLen);

  xor_into(db.data(), mgf1_sha256(h_digest, db_len));
  // Clear the leftmost 8*em_len - em_bits bits.
  db[0] &= static_cast<std::uint8_t>(0xFF >> (8 * em_len - em_bits));

  util::Bytes em;
  em.reserve(em_len + 1);
  em.insert(em.end(), db.begin(), db.end());
  em.insert(em.end(), h_digest.begin(), h_digest.end());
  em.push_back(0xBC);

  return rsa_private_op(key, BigUint::from_bytes_be(em)).to_bytes_be(k);
}

bool rsa_pss_verify(const RsaPublicKey& key,
                    std::span<const std::uint8_t> message,
                    std::span<const std::uint8_t> signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  BigUint s = BigUint::from_bytes_be(signature);
  if (s >= key.n) return false;

  const std::size_t em_bits = key.n.bit_length() - 1;
  const std::size_t em_len = (em_bits + 7) / 8;
  if (em_len < 2 * kHashLen + 2) return false;

  util::Bytes em = rsa_public_op(key, s).to_bytes_be(em_len);
  if (em.back() != 0xBC) return false;

  const std::size_t db_len = em_len - kHashLen - 1;
  util::Bytes db(em.begin(), em.begin() + static_cast<std::ptrdiff_t>(db_len));
  util::Bytes h_digest(em.begin() + static_cast<std::ptrdiff_t>(db_len),
                       em.end() - 1);

  // Leftmost bits beyond em_bits must be zero.
  const std::uint8_t top_mask =
      static_cast<std::uint8_t>(0xFF >> (8 * em_len - em_bits));
  if ((db[0] & ~top_mask) != 0) return false;

  xor_into(db.data(), mgf1_sha256(h_digest, db_len));
  db[0] &= top_mask;

  // DB must be zeros || 0x01 || salt.
  std::size_t sep = 0;
  while (sep < db_len - kHashLen - 1 && db[sep] == 0x00) ++sep;
  if (db[sep] != 0x01 || sep != db_len - kHashLen - 1) return false;
  util::Bytes salt(db.end() - static_cast<std::ptrdiff_t>(kHashLen),
                   db.end());

  auto m_hash = Sha256::hash(message);
  Sha256 h;
  std::uint8_t zeros[8] = {};
  h.update(std::span<const std::uint8_t>(zeros, 8));
  h.update(m_hash);
  h.update(salt);
  auto expected = h.finish();
  return util::ct_equal(h_digest, expected);
}

}  // namespace sdmmon::crypto
