#include "crypto/bignum.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "crypto/opcount.hpp"

namespace sdmmon::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

namespace {

// Raw limb-vector helpers (little-endian, possibly non-normalized).

void trim(std::vector<u64>& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

int compare_limbs(const std::vector<u64>& a, const std::vector<u64>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<u64> add_limbs(const std::vector<u64>& a,
                           const std::vector<u64>& b) {
  const std::vector<u64>& big = a.size() >= b.size() ? a : b;
  const std::vector<u64>& small = a.size() >= b.size() ? b : a;
  std::vector<u64> out(big.size() + 1, 0);
  u128 carry = 0;
  for (std::size_t i = 0; i < big.size(); ++i) {
    u128 sum = carry + big[i] + (i < small.size() ? small[i] : 0);
    out[i] = static_cast<u64>(sum);
    carry = sum >> 64;
  }
  out[big.size()] = static_cast<u64>(carry);
  trim(out);
  return out;
}

// a - b, requires a >= b.
std::vector<u64> sub_limbs(const std::vector<u64>& a,
                           const std::vector<u64>& b) {
  std::vector<u64> out(a.size(), 0);
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 bi = i < b.size() ? b[i] : 0;
    u64 tmp = a[i] - bi;
    u64 borrow2 = (a[i] < bi) ? 1 : 0;
    u64 res = tmp - borrow;
    if (tmp < borrow) borrow2 = 1;
    out[i] = res;
    borrow = borrow2;
  }
  trim(out);
  return out;
}

std::vector<u64> schoolbook_mul(const std::vector<u64>& a,
                                const std::vector<u64>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<u64> out(a.size() + b.size(), 0);
  auto& ops = op_counters();
  for (std::size_t i = 0; i < a.size(); ++i) {
    u64 carry = 0;
    u64 ai = a[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + b.size()] = carry;
    ops.limb_muls += b.size();
  }
  trim(out);
  return out;
}

// Operands at or above this limb count use Karatsuba (3 half-size
// multiplies instead of 4); below it schoolbook wins on constants.
constexpr std::size_t kKaratsubaThreshold = 24;

std::vector<u64> mul_limbs(const std::vector<u64>& a,
                           const std::vector<u64>& b);

std::vector<u64> karatsuba_mul(const std::vector<u64>& a,
                               const std::vector<u64>& b) {
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  auto lo_part = [&](const std::vector<u64>& v) {
    return std::vector<u64>(v.begin(),
                            v.begin() + static_cast<std::ptrdiff_t>(
                                            std::min(half, v.size())));
  };
  auto hi_part = [&](const std::vector<u64>& v) {
    if (v.size() <= half) return std::vector<u64>{};
    return std::vector<u64>(v.begin() + static_cast<std::ptrdiff_t>(half),
                            v.end());
  };
  std::vector<u64> a_lo = lo_part(a), a_hi = hi_part(a);
  std::vector<u64> b_lo = lo_part(b), b_hi = hi_part(b);
  trim(a_lo);
  trim(b_lo);

  // z0 = a_lo*b_lo; z2 = a_hi*b_hi; z1 = (a_lo+a_hi)(b_lo+b_hi) - z0 - z2.
  std::vector<u64> z0 = mul_limbs(a_lo, b_lo);
  std::vector<u64> z2 = mul_limbs(a_hi, b_hi);
  std::vector<u64> z1 =
      mul_limbs(add_limbs(a_lo, a_hi), add_limbs(b_lo, b_hi));
  z1 = sub_limbs(z1, z0);
  z1 = sub_limbs(z1, z2);

  // result = z0 + (z1 << 64*half) + (z2 << 128*half)
  std::vector<u64> out(a.size() + b.size() + 1, 0);
  auto accumulate = [&](const std::vector<u64>& part, std::size_t shift) {
    u128 carry = 0;
    std::size_t i = 0;
    for (; i < part.size(); ++i) {
      u128 sum = static_cast<u128>(out[shift + i]) + part[i] + carry;
      out[shift + i] = static_cast<u64>(sum);
      carry = sum >> 64;
    }
    while (carry != 0) {
      u128 sum = static_cast<u128>(out[shift + i]) + carry;
      out[shift + i] = static_cast<u64>(sum);
      carry = sum >> 64;
      ++i;
    }
  };
  accumulate(z0, 0);
  accumulate(z1, half);
  accumulate(z2, 2 * half);
  trim(out);
  return out;
}

std::vector<u64> mul_limbs(const std::vector<u64>& a,
                           const std::vector<u64>& b) {
  if (a.empty() || b.empty()) return {};
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) {
    return schoolbook_mul(a, b);
  }
  return karatsuba_mul(a, b);
}

std::vector<u64> shl_limbs(const std::vector<u64>& a, std::size_t bits) {
  if (a.empty()) return {};
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(a.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i + limb_shift] |= bit_shift ? (a[i] << bit_shift) : a[i];
    if (bit_shift && i + limb_shift + 1 < out.size()) {
      out[i + limb_shift + 1] |= a[i] >> (64 - bit_shift);
    }
  }
  trim(out);
  return out;
}

std::vector<u64> shr_limbs(const std::vector<u64>& a, std::size_t bits) {
  const std::size_t limb_shift = bits / 64;
  if (limb_shift >= a.size()) return {};
  const std::size_t bit_shift = bits % 64;
  std::vector<u64> out(a.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = a[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < a.size()) {
      out[i] |= a[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  trim(out);
  return out;
}

// Knuth algorithm D. Returns {quotient, remainder}; den must be non-zero.
std::pair<std::vector<u64>, std::vector<u64>> divmod_limbs(
    std::vector<u64> num, std::vector<u64> den) {
  if (den.empty()) throw BignumError("division by zero");
  if (compare_limbs(num, den) < 0) return {{}, std::move(num)};

  // Single-limb divisor fast path.
  if (den.size() == 1) {
    u64 d = den[0];
    std::vector<u64> q(num.size(), 0);
    u128 rem = 0;
    for (std::size_t i = num.size(); i-- > 0;) {
      u128 cur = (rem << 64) | num[i];
      q[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    trim(q);
    return {std::move(q), rem ? std::vector<u64>{static_cast<u64>(rem)}
                              : std::vector<u64>{}};
  }

  // D1: normalize so the divisor's top limb has its high bit set.
  int shift = std::countl_zero(den.back());
  std::vector<u64> u = shl_limbs(num, static_cast<std::size_t>(shift));
  std::vector<u64> v = shl_limbs(den, static_cast<std::size_t>(shift));
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n;
  u.resize(u.size() + 1, 0);  // u has m+n+1 limbs

  std::vector<u64> q(m + 1, 0);
  const u64 v_top = v[n - 1];
  const u64 v_next = v[n - 2];

  auto& ops = op_counters();
  for (std::size_t j = m + 1; j-- > 0;) {
    // D3: estimate qhat from the top two limbs of the current remainder.
    u128 numerator = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    // qhat can exceed a limb. Every decrement, that one included, must
    // move rhat too (rhat == numerator - qhat * v_top), or the test below
    // decrements too far and the digit comes out short. Once rhat no
    // longer fits a limb the second test cannot hold.
    u128 qhat = numerator / v_top;
    u128 rhat = numerator % v_top;
    while (qhat > ~u64{0} ||
           qhat * v_next > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat > ~u64{0}) break;
    }

    // D4: multiply-subtract u[j..j+n] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 prod = qhat * v[i] + carry;
      carry = prod >> 64;
      u64 sub = static_cast<u64>(prod);
      u128 diff = static_cast<u128>(u[j + i]) - sub - borrow;
      u[j + i] = static_cast<u64>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    ops.limb_muls += n;
    u128 diff = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<u64>(diff);
    bool negative = (diff >> 64) != 0;

    // D5/D6: add back if the estimate was one too large.
    if (negative) {
      --qhat;
      u128 carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u[j + i]) + v[i] + carry2;
        u[j + i] = static_cast<u64>(sum);
        carry2 = sum >> 64;
      }
      u[j + n] += static_cast<u64>(carry2);
    }
    q[j] = static_cast<u64>(qhat);
  }

  trim(q);
  u.resize(n);
  std::vector<u64> r = shr_limbs(u, static_cast<std::size_t>(shift));
  return {std::move(q), std::move(r)};
}

}  // namespace

BigUint::BigUint(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

BigUint BigUint::from_limbs(std::vector<u64> limbs) {
  BigUint out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

void BigUint::normalize() { trim(limbs_); }

BigUint BigUint::from_bytes_be(std::span<const std::uint8_t> bytes) {
  std::vector<u64> limbs((bytes.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t pos = bytes.size() - 1 - i;  // byte significance
    limbs[pos / 8] |= static_cast<u64>(bytes[i]) << (8 * (pos % 8));
  }
  return from_limbs(std::move(limbs));
}

BigUint BigUint::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes_be(util::from_hex(padded));
}

util::Bytes BigUint::to_bytes_be(std::size_t min_len) const {
  util::Bytes out;
  const std::size_t byte_len = (bit_length() + 7) / 8;
  out.reserve(std::max(byte_len, min_len));
  for (std::size_t i = byte_len; i-- > 0;) {
    const std::size_t limb = i / 8;
    const std::size_t shift = (i % 8) * 8;
    out.push_back(static_cast<std::uint8_t>(limbs_[limb] >> shift));
  }
  if (out.size() < min_len) {
    out.insert(out.begin(), min_len - out.size(), 0);
  }
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  std::string s = util::to_hex(to_bytes_be());
  const std::size_t first = s.find_first_not_of('0');
  return s.substr(first == std::string::npos ? s.size() - 1 : first);
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 64 -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

void BigUint::set_bit(std::size_t i) {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= u64{1} << (i % 64);
}

std::strong_ordering BigUint::operator<=>(const BigUint& rhs) const {
  int c = compare_limbs(limbs_, rhs.limbs_);
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigUint BigUint::operator+(const BigUint& rhs) const {
  return from_limbs(add_limbs(limbs_, rhs.limbs_));
}

BigUint BigUint::operator-(const BigUint& rhs) const {
  if (*this < rhs) throw BignumError("BigUint subtraction underflow");
  return from_limbs(sub_limbs(limbs_, rhs.limbs_));
}

BigUint BigUint::operator*(const BigUint& rhs) const {
  return from_limbs(mul_limbs(limbs_, rhs.limbs_));
}

BigUint BigUint::operator/(const BigUint& rhs) const {
  return divmod(*this, rhs).first;
}

BigUint BigUint::operator%(const BigUint& rhs) const {
  return divmod(*this, rhs).second;
}

BigUint BigUint::operator<<(std::size_t bits) const {
  return from_limbs(shl_limbs(limbs_, bits));
}

BigUint BigUint::operator>>(std::size_t bits) const {
  return from_limbs(shr_limbs(limbs_, bits));
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& num,
                                            const BigUint& den) {
  auto [q, r] = divmod_limbs(num.limbs_, den.limbs_);
  return {from_limbs(std::move(q)), from_limbs(std::move(r))};
}

BigUint BigUint::modmul(const BigUint& a, const BigUint& b, const BigUint& m) {
  return (a * b) % m;
}

BigUint BigUint::modexp(const BigUint& base, const BigUint& exp,
                        const BigUint& m) {
  if (m.is_zero()) throw BignumError("modexp with zero modulus");
  ++op_counters().modexps;
  if (m.is_one()) return BigUint();
  if (m.is_odd()) {
    MontgomeryCtx ctx(m);
    return ctx.modexp(base, exp);
  }
  // Even modulus: plain square-and-multiply (only used in tests).
  BigUint result(1);
  BigUint b = base % m;
  const std::size_t nbits = exp.bit_length();
  for (std::size_t i = 0; i < nbits; ++i) {
    if (exp.bit(i)) result = modmul(result, b, m);
    b = modmul(b, b, m);
  }
  return result;
}

BigUint BigUint::gcd(BigUint a, BigUint b) {
  while (!b.is_zero()) {
    BigUint r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<BigUint> BigUint::modinv(const BigUint& a, const BigUint& m) {
  // Extended Euclid, tracking coefficients with explicit signs.
  if (m.is_zero()) return std::nullopt;
  BigUint old_r = a % m, r = m;
  BigUint old_s(1), s(0);
  bool old_s_neg = false, s_neg = false;

  while (!r.is_zero()) {
    auto [q, rem] = divmod(old_r, r);
    old_r = std::move(r);
    r = std::move(rem);

    // new_s = old_s - q * s (with signs).
    BigUint qs = q * s;
    BigUint new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = std::move(s);
    old_s_neg = s_neg;
    s = std::move(new_s);
    s_neg = new_s_neg;
  }

  if (!old_r.is_one()) return std::nullopt;
  if (old_s_neg) return m - (old_s % m);
  return old_s % m;
}

// ---------------------------------------------------------------------------
// Montgomery context

namespace {

// x * y + add1 + add2 as a low limb and a carry limb (the sum cannot
// overflow 128 bits).
inline u64 mul_add2(u64 x, u64 y, u64 add1, u64 add2, u64& carry) {
  const u128 product = static_cast<u128>(x) * y;
  u64 lo = static_cast<u64>(product);
  u64 hi = static_cast<u64>(product >> 64);
  hi += __builtin_add_overflow(lo, add1, &lo);
  hi += __builtin_add_overflow(lo, add2, &lo);
  carry = hi;
  return lo;
}

// out = a * b * R^{-1} mod n over k-limb operands with a * b < n * R (true
// when both are below n). The multiply and reduce rows of CIOS share one j
// loop (FIOS), each with its own carry, so the two add-with-carry chains
// run side by side. `t` is k + 1 limbs of caller-owned scratch; `out`
// aliases none of the other buffers.
void mont_mul(const u64* __restrict a, const u64* __restrict b,
              const u64* __restrict n, u64 n_prime, std::size_t k,
              u64* __restrict t, u64* __restrict out) {
  std::fill(t, t + k + 1, u64{0});
  for (std::size_t i = 0; i < k; ++i) {
    const u64 ai = a[i];
    u64 c_mul = 0;
    u64 c_red = 0;
    const u64 t0 = mul_add2(ai, b[0], t[0], 0, c_mul);
    const u64 m = t0 * n_prime;
    mul_add2(m, n[0], t0, 0, c_red);  // low limb is 0 by choice of m
    // t[j-1] = t[j] + ai * b[j] + m * n[j] + both carries, one limb down.
    auto step = [&](std::size_t j) {
      const u64 tj = mul_add2(ai, b[j], t[j], c_mul, c_mul);
      t[j - 1] = mul_add2(m, n[j], tj, c_red, c_red);
    };
    std::size_t j = 1;
    for (; j + 4 <= k; j += 4) {
      step(j);
      step(j + 1);
      step(j + 2);
      step(j + 3);
    }
    for (; j < k; ++j) step(j);
    const u128 top = static_cast<u128>(t[k]) + c_mul + c_red;
    t[k - 1] = static_cast<u64>(top);
    t[k] = static_cast<u64>(top >> 64);
  }

  // t < 2n, so one conditional subtraction of n reduces it.
  bool reduce = t[k] != 0;
  if (!reduce) {
    reduce = true;  // t == n reduces to 0
    for (std::size_t i = k; i-- > 0;) {
      if (t[i] != n[i]) {
        reduce = t[i] > n[i];
        break;
      }
    }
  }
  if (!reduce) {
    std::copy(t, t + k, out);
    return;
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 diff = static_cast<u128>(t[i]) - n[i] - borrow;
    out[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>(diff >> 64) & 1;
  }
}

}  // namespace

MontgomeryCtx::MontgomeryCtx(const BigUint& modulus) : n_(modulus) {
  if (!modulus.is_odd()) throw BignumError("Montgomery modulus must be odd");
  k_ = modulus.limbs().size();

  // n_prime = -n^{-1} mod 2^64 via Newton iteration.
  u64 n0 = modulus.limbs()[0];
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  n_prime_ = ~inv + 1;  // -inv mod 2^64

  // R^2 mod n where R = 2^(64k).
  r2_ = ((BigUint(1) << (k_ * 64 * 2)) % n_).limbs();
  r2_.resize(k_, 0);
}

BigUint MontgomeryCtx::modexp(const BigUint& base, const BigUint& exp) const {
  const std::size_t k = k_;
  // One scratch buffer: base mod n, 1, base in Montgomery form, the
  // accumulator and its ping-pong partner (k limbs each), then the
  // kernel's k + 1 limbs.
  std::vector<u64> scratch(6 * k + 1, 0);
  u64* b = scratch.data();
  u64* one = b + k;
  u64* b_mont = one + k;
  u64* acc = b_mont + k;
  u64* next = acc + k;
  u64* t = next + k;
  const BigUint reduced = base % n_;
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), b);
  one[0] = 1;

  const u64* n = n_.limbs_.data();
  u64& limb_muls = op_counters().limb_muls;
  auto mul = [&](const u64* x, const u64* y, u64* out) {
    mont_mul(x, y, n, n_prime_, k, t, out);
    limb_muls += 2 * k * k;
  };
  // Into Montgomery form: bR = mont(b, R^2); 1 -> R mod n = mont(1, R^2).
  mul(b, r2_.data(), b_mont);
  mul(one, r2_.data(), acc);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    mul(acc, acc, next);
    std::swap(acc, next);
    if (exp.bit(i)) {
      mul(acc, b_mont, next);
      std::swap(acc, next);
    }
  }
  // Out of Montgomery form.
  mul(acc, one, next);
  return BigUint::from_limbs(std::vector<u64>(next, next + k));
}

}  // namespace sdmmon::crypto
