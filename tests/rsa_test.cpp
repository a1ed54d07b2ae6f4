#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

namespace sdmmon::crypto {
namespace {

// Key generation is the slow part; share one keypair across tests.
const RsaKeyPair& test_key() {
  static const RsaKeyPair kp = [] {
    Drbg d("rsa-test-key");
    return rsa_generate(1024, d);
  }();
  return kp;
}

TEST(RsaKeygen, KeyInvariants) {
  const auto& kp = test_key();
  EXPECT_EQ(kp.priv.n.bit_length(), 1024u);
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.priv.n);
  EXPECT_EQ(kp.priv.e, BigUint(65537));
  // e*d == 1 mod (p-1)(q-1)
  BigUint phi = (kp.priv.p - BigUint(1)) * (kp.priv.q - BigUint(1));
  EXPECT_EQ(BigUint::modmul(kp.priv.e, kp.priv.d, phi), BigUint(1));
  // CRT components consistent.
  EXPECT_EQ(kp.priv.dp, kp.priv.d % (kp.priv.p - BigUint(1)));
  EXPECT_EQ(BigUint::modmul(kp.priv.q, kp.priv.qinv, kp.priv.p), BigUint(1));
}

TEST(RsaKeygen, DeterministicFromSeed) {
  Drbg a("kg-seed"), b("kg-seed");
  auto k1 = rsa_generate(512, a);
  auto k2 = rsa_generate(512, b);
  EXPECT_EQ(k1.pub.n, k2.pub.n);
}

TEST(RsaKeygen, RejectsTinyOrOddSizes) {
  Drbg d("bad");
  EXPECT_THROW(rsa_generate(64, d), RsaError);
  EXPECT_THROW(rsa_generate(513, d), RsaError);
}

TEST(RsaRawOps, PrivateUndoesPublic) {
  const auto& kp = test_key();
  Drbg d("raw");
  BigUint m = BigUint::from_bytes_be(d.bytes(100));
  BigUint c = rsa_public_op(kp.pub, m);
  EXPECT_EQ(rsa_private_op(kp.priv, c), m);
  // And the other direction (sign-then-verify at the raw level).
  BigUint s = rsa_private_op(kp.priv, m);
  EXPECT_EQ(rsa_public_op(kp.pub, s), m);
}

TEST(RsaRawOps, RejectsOutOfRange) {
  const auto& kp = test_key();
  EXPECT_THROW(rsa_public_op(kp.pub, kp.pub.n), RsaError);
  EXPECT_THROW(rsa_private_op(kp.priv, kp.priv.n + BigUint(1)), RsaError);
}

TEST(RsaEncrypt, RoundTrip) {
  const auto& kp = test_key();
  Drbg d("enc");
  util::Bytes msg = util::bytes_of("K_sym for the install package");
  util::Bytes ct = rsa_encrypt(kp.pub, msg, d);
  EXPECT_EQ(ct.size(), kp.pub.modulus_bytes());
  auto pt = rsa_decrypt(kp.priv, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, msg);
}

TEST(RsaEncrypt, RandomizedPadding) {
  const auto& kp = test_key();
  Drbg d("enc2");
  util::Bytes msg = util::bytes_of("same message");
  util::Bytes c1 = rsa_encrypt(kp.pub, msg, d);
  util::Bytes c2 = rsa_encrypt(kp.pub, msg, d);
  EXPECT_NE(c1, c2);  // PKCS#1 v1.5 padding is randomized
  EXPECT_EQ(rsa_decrypt(kp.priv, c1), rsa_decrypt(kp.priv, c2));
}

TEST(RsaEncrypt, MaxLengthMessage) {
  const auto& kp = test_key();
  Drbg d("enc3");
  util::Bytes msg(kp.pub.modulus_bytes() - 11, 0x5A);
  util::Bytes ct = rsa_encrypt(kp.pub, msg, d);
  EXPECT_EQ(rsa_decrypt(kp.priv, ct), msg);
}

TEST(RsaEncrypt, TooLongThrows) {
  const auto& kp = test_key();
  Drbg d("enc4");
  util::Bytes msg(kp.pub.modulus_bytes() - 10, 0);
  EXPECT_THROW(rsa_encrypt(kp.pub, msg, d), RsaError);
}

TEST(RsaDecrypt, RejectsTamperedCiphertext) {
  const auto& kp = test_key();
  Drbg d("tamper");
  util::Bytes ct = rsa_encrypt(kp.pub, util::bytes_of("secret"), d);
  ct[10] ^= 0x01;
  auto pt = rsa_decrypt(kp.priv, ct);
  // Either padding fails (nullopt) or the recovered bytes differ.
  if (pt) {
    EXPECT_NE(*pt, util::bytes_of("secret"));
  }
}

TEST(RsaDecrypt, RejectsWrongLength) {
  const auto& kp = test_key();
  EXPECT_EQ(rsa_decrypt(kp.priv, util::Bytes(10, 0)), std::nullopt);
}

TEST(RsaSign, VerifyAccepts) {
  const auto& kp = test_key();
  util::Bytes msg = util::bytes_of("binary || monitoring graph || hash param");
  util::Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_EQ(sig.size(), kp.pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
}

TEST(RsaSign, VerifyRejectsModifiedMessage) {
  const auto& kp = test_key();
  util::Bytes msg = util::bytes_of("original");
  util::Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_FALSE(rsa_verify(kp.pub, util::bytes_of("0riginal"), sig));
}

TEST(RsaSign, VerifyRejectsModifiedSignature) {
  const auto& kp = test_key();
  util::Bytes msg = util::bytes_of("message");
  util::Bytes sig = rsa_sign(kp.priv, msg);
  sig[0] ^= 0x80;
  EXPECT_FALSE(rsa_verify(kp.pub, msg, sig));
  EXPECT_FALSE(rsa_verify(kp.pub, msg, util::Bytes(sig.size() - 1, 0)));
}

TEST(RsaSign, VerifyRejectsWrongKey) {
  const auto& kp = test_key();
  Drbg d("other-key");
  auto other = rsa_generate(512, d);
  util::Bytes msg = util::bytes_of("message");
  util::Bytes sig = rsa_sign(kp.priv, msg);
  EXPECT_FALSE(rsa_verify(other.pub, msg, sig));
}

TEST(RsaSerialize, PublicKeyRoundTrip) {
  const auto& kp = test_key();
  auto bytes = kp.pub.serialize();
  auto back = RsaPublicKey::deserialize(bytes);
  EXPECT_EQ(back, kp.pub);
  EXPECT_EQ(back.fingerprint(), kp.pub.fingerprint());
}

TEST(RsaSerialize, PrivateKeyRoundTrip) {
  const auto& kp = test_key();
  auto bytes = kp.priv.serialize();
  auto back = RsaPrivateKey::deserialize(bytes);
  EXPECT_EQ(back.n, kp.priv.n);
  EXPECT_EQ(back.d, kp.priv.d);
  EXPECT_EQ(back.qinv, kp.priv.qinv);
  // Restored key still works.
  util::Bytes msg = util::bytes_of("still works");
  EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(back, msg)));
}

TEST(RsaSerialize, FingerprintDistinguishesKeys) {
  const auto& kp = test_key();
  Drbg d("fp");
  auto other = rsa_generate(512, d);
  EXPECT_NE(kp.pub.fingerprint(), other.pub.fingerprint());
}

}  // namespace
}  // namespace sdmmon::crypto
