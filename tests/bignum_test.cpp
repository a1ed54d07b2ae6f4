#include "crypto/bignum.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "crypto/drbg.hpp"
#include "crypto/opcount.hpp"
#include "util/bytes.hpp"

namespace sdmmon::crypto {
namespace {

BigUint rand_big(Drbg& d, std::size_t max_bytes) {
  std::size_t n = 1 + d.below(max_bytes);
  return BigUint::from_bytes_be(d.bytes(n));
}

// The oracle for every Montgomery test: right-to-left square-and-multiply
// over modmul (schoolbook or Karatsuba product, then Knuth division).
BigUint oracle_modexp(const BigUint& base, const BigUint& exp,
                      const BigUint& m) {
  BigUint result = BigUint(1) % m;
  BigUint b = base % m;
  for (std::size_t bit = 0; bit < exp.bit_length(); ++bit) {
    if (exp.bit(bit)) result = BigUint::modmul(result, b, m);
    b = BigUint::modmul(b, b, m);
  }
  return result;
}

std::size_t popcount(const BigUint& v) {
  std::size_t count = 0;
  for (std::uint64_t limb : v.limbs()) {
    count += static_cast<std::size_t>(std::popcount(limb));
  }
  return count;
}

TEST(BigUint, ZeroBasics) {
  BigUint z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_length(), 0u);
  EXPECT_EQ(z.to_hex(), "0");
  EXPECT_EQ(z + z, z);
  EXPECT_EQ(z * BigUint(12345), z);
}

TEST(BigUint, SmallArithmetic) {
  EXPECT_EQ(BigUint(2) + BigUint(3), BigUint(5));
  EXPECT_EQ(BigUint(10) - BigUint(4), BigUint(6));
  EXPECT_EQ(BigUint(7) * BigUint(6), BigUint(42));
  EXPECT_EQ(BigUint(100) / BigUint(7), BigUint(14));
  EXPECT_EQ(BigUint(100) % BigUint(7), BigUint(2));
}

TEST(BigUint, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUint(3) - BigUint(4), BignumError);
}

TEST(BigUint, DivisionByZeroThrows) {
  EXPECT_THROW(BigUint(3) / BigUint(0), BignumError);
  EXPECT_THROW(BigUint(3) % BigUint(0), BignumError);
}

TEST(BigUint, CarryPropagation) {
  BigUint max64(~std::uint64_t{0});
  BigUint sum = max64 + BigUint(1);
  EXPECT_EQ(sum.bit_length(), 65u);
  EXPECT_EQ(sum.to_hex(), "10000000000000000");
  EXPECT_EQ(sum - BigUint(1), max64);
}

TEST(BigUint, HexRoundTrip) {
  const std::string hex = "123456789abcdef0fedcba9876543210deadbeef";
  BigUint v = BigUint::from_hex(hex);
  EXPECT_EQ(v.to_hex(), hex);
}

TEST(BigUint, BytesRoundTripWithPadding) {
  util::Bytes b = util::from_hex("00ab12");
  BigUint v = BigUint::from_bytes_be(b);
  EXPECT_EQ(util::to_hex(v.to_bytes_be()), "ab12");
  EXPECT_EQ(util::to_hex(v.to_bytes_be(5)), "000000ab12");
}

TEST(BigUint, FromBytesEmptySpanIsZero) {
  BigUint v = BigUint::from_bytes_be({});
  EXPECT_TRUE(v.is_zero());
  EXPECT_TRUE(v.limbs().empty());
  EXPECT_TRUE(v.to_bytes_be().empty());
}

TEST(BigUint, FromBytesIgnoresLeadingZeros) {
  // Zero bytes past the top limb must not leave zero limbs behind.
  util::Bytes zeros(20, 0);
  EXPECT_TRUE(BigUint::from_bytes_be(zeros).limbs().empty());
  util::Bytes padded = util::from_hex("000000000000000000000000000000abcdef");
  BigUint v = BigUint::from_bytes_be(padded);
  EXPECT_EQ(v, BigUint(0xabcdef));
  EXPECT_EQ(v.limbs().size(), 1u);
  EXPECT_EQ(v.to_bytes_be(padded.size()), padded);
}

TEST(BigUint, FromBytesRoundTripsEveryLength) {
  Drbg d("from-bytes");
  for (std::size_t len = 1; len <= 300; ++len) {
    util::Bytes bytes = d.bytes(len);
    if (len % 3 == 0) bytes[0] = 0;  // a leading zero byte every third length
    BigUint v = BigUint::from_bytes_be(bytes);
    // Byte-at-a-time shift-and-add as the reference value.
    BigUint expected;
    for (std::uint8_t b : bytes) expected = (expected << 8) + BigUint(b);
    ASSERT_EQ(v, expected) << len << " bytes";
    ASSERT_EQ(v.to_bytes_be(len), bytes) << len << " bytes";
    ASSERT_EQ(BigUint::from_bytes_be(v.to_bytes_be()), v) << len << " bytes";
  }
}

TEST(BigUint, ShiftRoundTrip) {
  BigUint v = BigUint::from_hex("deadbeefcafebabe1234");
  for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 129u}) {
    EXPECT_EQ((v << s) >> s, v) << "shift " << s;
  }
  EXPECT_EQ(BigUint(1) << 200, BigUint::from_hex("1" + std::string(50, '0')));
}

TEST(BigUint, BitAccess) {
  BigUint v;
  v.set_bit(0);
  v.set_bit(64);
  v.set_bit(100);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(64));
  EXPECT_TRUE(v.bit(100));
  EXPECT_FALSE(v.bit(1));
  EXPECT_FALSE(v.bit(1000));
  EXPECT_EQ(v.bit_length(), 101u);
}

TEST(BigUint, Comparisons) {
  BigUint a = BigUint::from_hex("ffffffffffffffff");
  BigUint b = BigUint::from_hex("10000000000000000");
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, a);
  EXPECT_LE(a, a);
}

// Property: (q * den + rem) == num and rem < den, across random inputs.
TEST(BigUint, DivmodInvariantRandom) {
  Drbg d("divmod");
  for (int i = 0; i < 200; ++i) {
    BigUint num = rand_big(d, 64);
    BigUint den = rand_big(d, 32);
    if (den.is_zero()) den = BigUint(1);
    auto [q, r] = BigUint::divmod(num, den);
    EXPECT_EQ(q * den + r, num);
    EXPECT_LT(r, den);
  }
}

// Regression territory for Knuth D: divisors with top limb 0x8000.. and
// numerators triggering the add-back step.
TEST(BigUint, DivmodHardCases) {
  BigUint num = BigUint::from_hex("7fffffffffffffff8000000000000000");
  BigUint den = BigUint::from_hex("80000000000000008000000000000001");
  auto [q, r] = BigUint::divmod(num, den);
  EXPECT_EQ(q * den + r, num);
  EXPECT_LT(r, den);

  // num exactly divisible.
  BigUint a = BigUint::from_hex("1234567890abcdef");
  BigUint prod = a * a * a;
  EXPECT_EQ(prod % a, BigUint(0));
  EXPECT_EQ(prod / a, a * a);
}

// A remainder whose top limb equals the divisor's top limb makes the
// quotient-digit estimate overflow a limb; clamping it must also move the
// estimate's remainder, or the correction step undershoots the digit.
TEST(BigUint, DivmodQuotientDigitOverflow) {
  for (std::size_t k = 2; k <= 5; ++k) {
    const BigUint n = (BigUint(1) << (64 * k)) - BigUint(1);
    const BigUint a = n - BigUint(1);
    auto [q, r] = BigUint::divmod(a * a, n);
    EXPECT_EQ(r, BigUint(1)) << "k=" << k;  // (n - 1)^2 = 1 mod n
    EXPECT_EQ(q, n - BigUint(2)) << "k=" << k;
  }
}

TEST(BigUint, MulCommutativeAssociativeRandom) {
  Drbg d("mul");
  for (int i = 0; i < 100; ++i) {
    BigUint a = rand_big(d, 24);
    BigUint b = rand_big(d, 24);
    BigUint c = rand_big(d, 24);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigUint, ModmulMatchesMulThenMod) {
  Drbg d("modmul");
  for (int i = 0; i < 100; ++i) {
    BigUint a = rand_big(d, 32);
    BigUint b = rand_big(d, 32);
    BigUint m = rand_big(d, 16);
    if (m.is_zero()) m = BigUint(7);
    EXPECT_EQ(BigUint::modmul(a, b, m), (a * b) % m);
  }
}

TEST(BigUint, ModexpSmallKnownValues) {
  EXPECT_EQ(BigUint::modexp(BigUint(2), BigUint(10), BigUint(1000)),
            BigUint(24));
  EXPECT_EQ(BigUint::modexp(BigUint(3), BigUint(0), BigUint(7)), BigUint(1));
  EXPECT_EQ(BigUint::modexp(BigUint(0), BigUint(5), BigUint(7)), BigUint(0));
  // Fermat: a^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(BigUint::modexp(BigUint(5), BigUint(100002), BigUint(100003)),
            BigUint(1));
}

// Property: Montgomery modexp agrees with naive square-and-multiply.
TEST(BigUint, ModexpMatchesNaive) {
  Drbg d("modexp");
  for (int i = 0; i < 30; ++i) {
    BigUint base = rand_big(d, 16);
    BigUint exp = rand_big(d, 4);
    BigUint m = rand_big(d, 16);
    if (m.is_zero()) m = BigUint(3);
    if (!m.is_odd()) m += BigUint(1);  // Montgomery path requires odd
    EXPECT_EQ(BigUint::modexp(base, exp, m), oracle_modexp(base, exp, m))
        << "iter " << i;
  }
}

TEST(BigUint, ModexpEvenModulus) {
  // Falls back to the non-Montgomery path.
  EXPECT_EQ(BigUint::modexp(BigUint(3), BigUint(4), BigUint(100)),
            BigUint(81 % 100));
  EXPECT_EQ(BigUint::modexp(BigUint(7), BigUint(3), BigUint(10)), BigUint(3));
}

TEST(BigUint, Gcd) {
  EXPECT_EQ(BigUint::gcd(BigUint(12), BigUint(18)), BigUint(6));
  EXPECT_EQ(BigUint::gcd(BigUint(17), BigUint(5)), BigUint(1));
  EXPECT_EQ(BigUint::gcd(BigUint(0), BigUint(5)), BigUint(5));
  EXPECT_EQ(BigUint::gcd(BigUint(5), BigUint(0)), BigUint(5));
}

TEST(BigUint, ModinvKnown) {
  auto inv = BigUint::modinv(BigUint(3), BigUint(11));
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(*inv, BigUint(4));  // 3*4 = 12 = 1 mod 11
  EXPECT_FALSE(BigUint::modinv(BigUint(6), BigUint(9)).has_value());
}

// Property: a * modinv(a, m) == 1 mod m whenever gcd(a, m) == 1.
TEST(BigUint, ModinvInverseProperty) {
  Drbg d("modinv");
  int tested = 0;
  for (int i = 0; i < 200 && tested < 80; ++i) {
    BigUint a = rand_big(d, 16);
    BigUint m = rand_big(d, 16);
    if (m < BigUint(2) || a.is_zero()) continue;
    if (!BigUint::gcd(a, m).is_one()) continue;
    auto inv = BigUint::modinv(a, m);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(BigUint::modmul(a % m, *inv, m), BigUint(1));
    ++tested;
  }
  EXPECT_GE(tested, 40);
}

TEST(BigUint, KaratsubaMatchesSchoolbookAcrossThreshold) {
  // mul_limbs switches to Karatsuba at >= 24 limbs (1536 bits); verify the
  // product against the distributive-law identity around and far beyond
  // the threshold.
  Drbg d("karatsuba");
  for (std::size_t bytes : {150u, 180u, 192u, 200u, 400u, 1000u}) {
    BigUint a = BigUint::from_bytes_be(d.bytes(bytes));
    BigUint b = BigUint::from_bytes_be(d.bytes(bytes));
    BigUint c = BigUint::from_bytes_be(d.bytes(bytes / 2));
    // (a + c) * b == a*b + c*b exercises both mul paths and addition.
    EXPECT_EQ((a + c) * b, a * b + c * b) << bytes << " bytes";
    // Square via mul must match shift-add decomposition: a*(a+1) = a^2+a.
    EXPECT_EQ(a * (a + BigUint(1)), a * a + a);
  }
}

TEST(BigUint, KaratsubaUnbalancedOperands) {
  Drbg d("karatsuba-unbalanced");
  BigUint big = BigUint::from_bytes_be(d.bytes(512));   // 64 limbs
  BigUint small = BigUint::from_bytes_be(d.bytes(16));  // 2 limbs
  BigUint mid = BigUint::from_bytes_be(d.bytes(200));   // 25 limbs
  // Verify with divmod: (big * x) / x == big when x != 0.
  for (const BigUint* x : {&small, &mid}) {
    BigUint prod = big * *x;
    auto [q, r] = BigUint::divmod(prod, *x);
    EXPECT_EQ(q, big);
    EXPECT_TRUE(r.is_zero());
  }
}

TEST(BigUint, KaratsubaRsaSizedRoundTrip) {
  // 2048-bit modulus arithmetic exercised through the Karatsuba path.
  Drbg d("karatsuba-rsa");
  BigUint p = BigUint::from_bytes_be(d.bytes(128));
  BigUint q = BigUint::from_bytes_be(d.bytes(128));
  BigUint n = p * q;
  EXPECT_EQ(n % p, BigUint(0) + (n - (n / p) * p));  // divmod identity
  EXPECT_EQ((n / q) * q + n % q, n);
}

TEST(MontgomeryCtxTest, RequiresOddModulus) {
  EXPECT_THROW(MontgomeryCtx(BigUint(100)), BignumError);
}

TEST(MontgomeryCtxTest, MatchesModexpOnLargeOperands) {
  Drbg d("mont");
  BigUint m = BigUint::from_bytes_be(d.bytes(128));
  if (!m.is_odd()) m += BigUint(1);
  MontgomeryCtx ctx(m);
  for (int i = 0; i < 10; ++i) {
    BigUint base = rand_big(d, 128);
    BigUint exp = rand_big(d, 8);
    EXPECT_EQ(ctx.modexp(base, exp), oracle_modexp(base, exp, m));
  }
}

// Every limb count from 1 to 40 (so each remainder of the unrolled inner
// loop, and the empty inner loop at k = 1), against the oracle. Moduli:
// all ones (2^(64k) - 1), a top limb of 1 (n = 1 at k = 1), and a random
// odd k-limb value. Operands: 0, 1, n - 1, a random value below n and a
// random value of 2k limbs; exponents: 0, 1, powers of two around the
// first limb boundary and random values of up to 1024 bits.
TEST(MontgomeryCtxTest, MatchesOracleAtEveryLimbCount) {
  Drbg d("mont-limbs");
  for (std::size_t k = 1; k <= 40; ++k) {
    const BigUint r = BigUint(1) << (64 * k);
    BigUint top_one = (BigUint(1) << (64 * (k - 1))) +
                      (k > 1 ? BigUint::from_bytes_be(d.bytes(8 * (k - 1))) %
                                   (BigUint(1) << (64 * (k - 1)))
                             : BigUint());
    if (!top_one.is_odd()) top_one += BigUint(1);
    BigUint random = BigUint::from_bytes_be(d.bytes(8 * k));
    random.set_bit(64 * k - 1);
    if (!random.is_odd()) random += BigUint(1);

    for (const BigUint& n : {r - BigUint(1), top_one, random}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " n=" + n.to_hex());
      ASSERT_EQ(n.limbs().size(), k);
      MontgomeryCtx ctx(n);
      const BigUint operands[] = {
          BigUint(0), BigUint(1), n.is_one() ? BigUint(0) : n - BigUint(1),
          BigUint::from_bytes_be(d.bytes(8 * k)) % n,
          BigUint::from_bytes_be(d.bytes(16 * k))};
      const BigUint exps[] = {BigUint(0),       BigUint(1),
                              BigUint(2),       BigUint(1) << 63,
                              BigUint(1) << 64, BigUint(1) << 65,
                              rand_big(d, 4)};
      for (const BigUint& base : operands) {
        for (const BigUint& e : exps) {
          ASSERT_EQ(ctx.modexp(base, e), oracle_modexp(base, e, n))
              << "base=" << base.to_hex() << " e=" << e.to_hex();
        }
      }
      // One long exponent per modulus, up to 1024 bits.
      const BigUint base = BigUint::from_bytes_be(d.bytes(8 * k));
      const BigUint e = rand_big(d, 128);
      ASSERT_EQ(ctx.modexp(base, e), oracle_modexp(base, e, n))
          << "base=" << base.to_hex() << " e=" << e.to_hex();
    }
  }
}

// Pins limb_muls to the binary ladder: for base < n and a context built
// beforehand (its R^2 division is not counted here), every Montgomery
// product is k rows of k multiply and k reduce steps, and a modexp runs
// two conversions in, one square per exponent bit, one multiply per set
// bit and one conversion out. Any change to the algorithm (a dedicated
// square, a window, a skipped leading square) breaks the equality, and
// with it the Table 2 model, whose only input these counts are.
TEST(MontgomeryCtxTest, LimbMulCountIsTheBinaryLadder) {
  Drbg d("mont-count");
  for (std::size_t k : {1u, 2u, 5u, 16u, 17u, 32u}) {
    BigUint n = BigUint::from_bytes_be(d.bytes(8 * k));
    n.set_bit(64 * k - 1);
    if (!n.is_odd()) n += BigUint(1);
    MontgomeryCtx ctx(n);
    const BigUint base = BigUint::from_bytes_be(d.bytes(8 * k)) % n;
    for (const BigUint& e : {BigUint(0), BigUint(1), BigUint(65537),
                             BigUint(1) << 100, rand_big(d, 128)}) {
      OpScope scope;
      (void)ctx.modexp(base, e);
      const OpCounters delta = scope.delta();
      EXPECT_EQ(delta.limb_muls,
                2 * k * k * (3 + e.bit_length() + popcount(e)))
          << "k=" << k << " e=" << e.to_hex();
      EXPECT_EQ(delta.modexps, 0u);
      EXPECT_EQ(delta.aes_blocks, 0u);
      EXPECT_EQ(delta.sha256_blocks, 0u);
    }
  }
}

}  // namespace
}  // namespace sdmmon::crypto
