// Arbitrary-precision unsigned integers for the RSA implementation.
// Little-endian 64-bit limbs, schoolbook multiplication with op counting
// (feeds the embedded-core timing model), Knuth algorithm D division, and
// Montgomery-form modular exponentiation for odd moduli.
#ifndef SDMMON_CRYPTO_BIGNUM_HPP
#define SDMMON_CRYPTO_BIGNUM_HPP

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace sdmmon::crypto {

class BignumError : public std::runtime_error {
 public:
  explicit BignumError(const std::string& what) : std::runtime_error(what) {}
};

/// Non-negative arbitrary-precision integer. Subtraction that would go
/// negative throws BignumError (RSA never needs signed arithmetic except in
/// the extended GCD, which handles signs locally).
class BigUint {
 public:
  BigUint() = default;
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor)

  static BigUint from_bytes_be(std::span<const std::uint8_t> bytes);
  static BigUint from_hex(std::string_view hex);

  /// Big-endian bytes, left-padded with zeros to at least `min_len`.
  util::Bytes to_bytes_be(std::size_t min_len = 0) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_one() const { return limbs_.size() == 1 && limbs_[0] == 1; }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  void set_bit(std::size_t i);

  /// Value of the low 64 bits.
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }

  std::strong_ordering operator<=>(const BigUint& rhs) const;
  bool operator==(const BigUint& rhs) const = default;

  BigUint operator+(const BigUint& rhs) const;
  BigUint operator-(const BigUint& rhs) const;  // throws if rhs > *this
  BigUint operator*(const BigUint& rhs) const;
  BigUint operator/(const BigUint& rhs) const;
  BigUint operator%(const BigUint& rhs) const;
  BigUint operator<<(std::size_t bits) const;
  BigUint operator>>(std::size_t bits) const;

  BigUint& operator+=(const BigUint& rhs) { return *this = *this + rhs; }
  BigUint& operator-=(const BigUint& rhs) { return *this = *this - rhs; }

  /// Quotient and remainder in one pass; divisor must be non-zero.
  static std::pair<BigUint, BigUint> divmod(const BigUint& num,
                                            const BigUint& den);

  /// (a * b) mod m.
  static BigUint modmul(const BigUint& a, const BigUint& b, const BigUint& m);

  /// base^exp mod m; uses Montgomery multiplication when m is odd.
  static BigUint modexp(const BigUint& base, const BigUint& exp,
                        const BigUint& m);

  static BigUint gcd(BigUint a, BigUint b);

  /// Multiplicative inverse of a mod m, if gcd(a, m) == 1.
  static std::optional<BigUint> modinv(const BigUint& a, const BigUint& m);

  const std::vector<std::uint64_t>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryCtx;

  void normalize();
  static BigUint from_limbs(std::vector<std::uint64_t> limbs);

  std::vector<std::uint64_t> limbs_;  // little-endian, no trailing zeros
};

/// Precomputed Montgomery context for repeated modexp with the same odd
/// modulus (CRT-based RSA private ops reuse these).
class MontgomeryCtx {
 public:
  explicit MontgomeryCtx(const BigUint& modulus);

  /// base^exp mod modulus using left-to-right square-and-multiply. Every
  /// Montgomery product (two conversions in, one per exponent bit, one per
  /// set bit, one conversion out) adds 2k^2 to `limb_muls`: k rows of k
  /// multiply and k reduce steps.
  BigUint modexp(const BigUint& base, const BigUint& exp) const;

  const BigUint& modulus() const { return n_; }

 private:
  BigUint n_;
  std::size_t k_;                   // limb count of modulus
  std::uint64_t n_prime_;           // -n^{-1} mod 2^64
  std::vector<std::uint64_t> r2_;   // R^2 mod n, padded to k limbs
};

}  // namespace sdmmon::crypto

#endif  // SDMMON_CRYPTO_BIGNUM_HPP
