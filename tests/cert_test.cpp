#include "crypto/cert.hpp"

#include <gtest/gtest.h>

namespace sdmmon::crypto {
namespace {

struct CertFixture : ::testing::Test {
  static void SetUpTestSuite() {
    Drbg d("cert-fixture");
    ca = new RsaKeyPair(rsa_generate(1024, d));
    subject = new RsaKeyPair(rsa_generate(1024, d));
  }
  static void TearDownTestSuite() {
    delete ca;
    delete subject;
    ca = nullptr;
    subject = nullptr;
  }

  static Certificate make_cert(std::uint64_t from = 1000,
                               std::uint64_t to = 2000,
                               CertRole role = CertRole::NetworkOperator) {
    return issue_certificate("operator-1", role, 42, from, to, subject->pub,
                             "manufacturer-root", ca->priv);
  }

  static RsaKeyPair* ca;
  static RsaKeyPair* subject;
};

RsaKeyPair* CertFixture::ca = nullptr;
RsaKeyPair* CertFixture::subject = nullptr;

TEST_F(CertFixture, ValidCertVerifies) {
  auto cert = make_cert();
  EXPECT_EQ(verify_certificate(cert, ca->pub, 1500), CertStatus::Ok);
}

TEST_F(CertFixture, RoleCheckedWhenRequested) {
  auto cert = make_cert();
  EXPECT_EQ(verify_certificate(cert, ca->pub, 1500,
                               CertRole::NetworkOperator),
            CertStatus::Ok);
  EXPECT_EQ(verify_certificate(cert, ca->pub, 1500, CertRole::Device),
            CertStatus::WrongRole);
}

TEST_F(CertFixture, ExpiryWindowEnforced) {
  auto cert = make_cert(1000, 2000);
  EXPECT_EQ(verify_certificate(cert, ca->pub, 999), CertStatus::NotYetValid);
  EXPECT_EQ(verify_certificate(cert, ca->pub, 1000), CertStatus::Ok);
  EXPECT_EQ(verify_certificate(cert, ca->pub, 2000), CertStatus::Ok);
  EXPECT_EQ(verify_certificate(cert, ca->pub, 2001), CertStatus::Expired);
}

TEST_F(CertFixture, WrongIssuerKeyRejected) {
  auto cert = make_cert();
  EXPECT_EQ(verify_certificate(cert, subject->pub, 1500),
            CertStatus::BadSignature);
}

TEST_F(CertFixture, TamperedSubjectRejected) {
  auto cert = make_cert();
  cert.subject = "operator-EVIL";
  EXPECT_EQ(verify_certificate(cert, ca->pub, 1500), CertStatus::BadSignature);
}

TEST_F(CertFixture, TamperedKeyRejected) {
  auto cert = make_cert();
  cert.subject_key.e = BigUint(3);
  EXPECT_EQ(verify_certificate(cert, ca->pub, 1500), CertStatus::BadSignature);
}

TEST_F(CertFixture, TamperedValidityRejected) {
  auto cert = make_cert(1000, 2000);
  cert.valid_to = 999999;
  EXPECT_EQ(verify_certificate(cert, ca->pub, 5000), CertStatus::BadSignature);
}

TEST_F(CertFixture, SerializationRoundTrip) {
  auto cert = make_cert();
  auto bytes = cert.serialize();
  auto back = Certificate::deserialize(bytes);
  EXPECT_EQ(back.subject, cert.subject);
  EXPECT_EQ(back.role, cert.role);
  EXPECT_EQ(back.serial, cert.serial);
  EXPECT_EQ(back.valid_from, cert.valid_from);
  EXPECT_EQ(back.valid_to, cert.valid_to);
  EXPECT_EQ(back.subject_key, cert.subject_key);
  EXPECT_EQ(back.issuer, cert.issuer);
  EXPECT_EQ(back.signature, cert.signature);
  EXPECT_EQ(verify_certificate(back, ca->pub, 1500), CertStatus::Ok);
}

TEST_F(CertFixture, DeserializeRejectsBadRole) {
  auto cert = make_cert();
  auto bytes = cert.serialize();
  // Role byte sits right after the 4-byte tbs length, 4-byte subject length
  // and the subject string.
  std::size_t role_off = 4 + 4 + cert.subject.size();
  bytes[role_off] = 0x77;
  EXPECT_THROW(Certificate::deserialize(bytes), util::DecodeError);
}

TEST_F(CertFixture, DeserializeRejectsTruncation) {
  auto bytes = make_cert().serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(Certificate::deserialize(bytes), util::DecodeError);
}

TEST(CertNames, RoleAndStatusNames) {
  EXPECT_STREQ(cert_status_name(CertStatus::Ok), "ok");
  EXPECT_STREQ(cert_status_name(CertStatus::Expired), "expired");
}

}  // namespace
}  // namespace sdmmon::crypto
