#include "crypto/modmath.h"

#include "base/error.h"

namespace simulcast::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) noexcept {
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t invmod(std::uint64_t a, std::uint64_t m) {
  if (m == 0) throw UsageError("invmod: zero modulus");
  // Extended Euclid.  The Bezout coefficients of a for successive
  // remainders alternate in sign, so only their magnitudes (never above m)
  // are kept, plus the sign of the newer one.
  std::uint64_t r0 = m, r1 = a % m;
  std::uint64_t s0 = 0, s1 = 1;
  bool s1_negative = false;
  while (r1 != 0) {
    const std::uint64_t quotient = r0 / r1;
    const std::uint64_t r2 = r0 - quotient * r1;
    const std::uint64_t s2 = s0 + quotient * s1;
    r0 = r1;
    r1 = r2;
    s0 = s1;
    s1 = s2;
    s1_negative = !s1_negative;
  }
  if (r0 != 1) throw UsageError("invmod: argument not invertible");
  // s0 carries the sign opposite to s1's.
  return !s1_negative && s0 != 0 ? m - s0 : s0;
}

int jacobi(std::uint64_t a, std::uint64_t n) noexcept {
  // Sign flips accumulate in bit 0 of `flip`.  (2/n) = -1 exactly when
  // n = 3 or 5 (mod 8), i.e. when bits 1 and 2 of n differ; reciprocity
  // (a/n) = (n/a) for odd a, n picks up a -1 when both are 3 (mod 4).
  // The loop is written with selects rather than branches: the comparison
  // is a coin flip per step, so branches would mispredict half the time.
  if (a == 0) return n == 1 ? 1 : 0;
  auto twos = static_cast<unsigned>(__builtin_ctzll(a));
  a >>= twos;
  std::uint64_t flip = twos & ((n >> 1) ^ (n >> 2));
  while (a != n) {  // both odd: replace (a, n) by (|a - n| / 2^k, min(a, n))
    const std::uint64_t d = a - n;
    const bool swap = a < n;
    flip ^= static_cast<std::uint64_t>(swap) & ((a & n) >> 1);
    n = swap ? a : n;
    a = swap ? 0 - d : d;
    twos = static_cast<unsigned>(__builtin_ctzll(d));
    a >>= twos;
    flip ^= twos & ((n >> 1) ^ (n >> 2));
  }
  // Now a = n = gcd of the inputs.
  if (n != 1) return 0;
  return (flip & 1) != 0 ? -1 : 1;
}

bool is_prime_u64(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL,
                          31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL,
                          31ULL, 37ULL}) {
    std::uint64_t x = powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

Montgomery::Montgomery(std::uint64_t m) : m_(m) {
  if (m <= 1 || (m & 1) == 0) throw UsageError("Montgomery: modulus must be odd and > 1");
  // Newton's iteration doubles the correct low bits of m^-1 mod 2^64; m is
  // its own inverse mod 8, so five steps reach 96 >= 64 bits.
  inv_ = m;
  for (int i = 0; i < 5; ++i) inv_ *= 2 - m * inv_;
  one_ = (0 - m) % m;  // 2^64 mod m
  // R^2 mod m = R mod m doubled 64 times, written so that 2x cannot wrap.
  r2_ = one_;
  for (int i = 0; i < 64; ++i) r2_ = r2_ >= m - r2_ ? r2_ - (m - r2_) : r2_ + r2_;
}

std::uint64_t Montgomery::pow(std::uint64_t a, std::uint64_t e) const noexcept {
  if (e == 0) return one_;
  std::uint64_t acc = a;
  for (int bit = 62 - __builtin_clzll(e); bit >= 0; --bit) {
    acc = mul(acc, acc);
    if ((e >> bit) & 1) acc = mul(acc, a);
  }
  return acc;
}

}  // namespace simulcast::crypto
