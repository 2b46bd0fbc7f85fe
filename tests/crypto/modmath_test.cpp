#include "crypto/modmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::crypto {
namespace {

/// The extended Euclid invmod used before the 64-bit rewrite: signed
/// __int128 accumulators and quotients.  Returns 0 when a is not invertible.
std::uint64_t invmod_int128_reference(std::uint64_t a, std::uint64_t m) {
  using i128 = __int128;
  i128 old_r = static_cast<i128>(a % m), r = static_cast<i128>(m);
  i128 old_s = 1, s = 0;
  while (r != 0) {
    const i128 quotient = old_r / r;
    i128 tmp = old_r - quotient * r;
    old_r = r;
    r = tmp;
    tmp = old_s - quotient * s;
    old_s = s;
    s = tmp;
  }
  if (old_r != 1) return 0;
  i128 result = old_s % static_cast<i128>(m);
  if (result < 0) result += static_cast<i128>(m);
  return static_cast<std::uint64_t>(result);
}

/// Textbook Jacobi symbol by quadratic reciprocity with `%`.
int jacobi_reference(std::uint64_t a, std::uint64_t n) {
  a %= n;
  int t = 1;
  while (a != 0) {
    while (a % 2 == 0) {
      a /= 2;
      if (n % 8 == 3 || n % 8 == 5) t = -t;
    }
    std::swap(a, n);
    if (a % 4 == 3 && n % 4 == 3) t = -t;
    a %= n;
  }
  return n == 1 ? t : 0;
}

/// Odd moduli spanning the kernel's range: tiny, composite, the standard
/// group's p, 2^61 - 1, and odd moduli at and above 2^63.
const std::vector<std::uint64_t>& montgomery_moduli() {
  static const std::vector<std::uint64_t> moduli = {
      3ULL, 9ULL, 23ULL, 1000000007ULL, 3599462771108323727ULL, 2305843009213693951ULL,
      (1ULL << 63) - 25, (1ULL << 63) + 1, 0xFFFFFFFFFFFFFFC5ULL, ~0ULL};
  return moduli;
}

TEST(MulMod, SmallValues) {
  EXPECT_EQ(mulmod(3, 4, 5), 2u);
  EXPECT_EQ(mulmod(0, 7, 13), 0u);
  EXPECT_EQ(mulmod(12, 12, 13), 1u);
}

TEST(MulMod, LargeValuesNoOverflow) {
  const std::uint64_t m = 0xFFFFFFFFFFFFFFC5ULL;  // largest 64-bit prime
  const std::uint64_t a = m - 1;
  // (m-1)^2 mod m = 1
  EXPECT_EQ(mulmod(a, a, m), 1u);
}

TEST(PowMod, SmallValues) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(5, 0, 7), 1u);
  EXPECT_EQ(powmod(5, 1, 7), 5u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  EXPECT_EQ(powmod(3, 100, 1), 0u);
}

TEST(PowMod, FermatLittleTheorem) {
  stats::Rng rng(1);
  const std::uint64_t p = 1000000007ULL;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = 1 + rng.below(p - 1);
    EXPECT_EQ(powmod(a, p - 1, p), 1u);
  }
}

TEST(InvMod, InverseProperty) {
  stats::Rng rng(2);
  const std::uint64_t p = 2305843009213693951ULL;  // 2^61 - 1
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = 1 + rng.below(p - 1);
    EXPECT_EQ(mulmod(a, invmod(a, p), p), 1u);
  }
}

TEST(InvMod, NonInvertibleThrows) {
  EXPECT_THROW((void)invmod(0, 7), UsageError);
  EXPECT_THROW((void)invmod(6, 9), UsageError);  // gcd(6,9)=3
}

TEST(InvMod, CompositeModulusCoprimeWorks) {
  EXPECT_EQ(mulmod(7, invmod(7, 9), 9), 1u);
}

TEST(InvMod, MatchesInt128ReferenceOverSeedSweep) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    stats::Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      // Moduli of every size, odd and even, up to 2^64 - 1.
      const std::uint64_t m = std::max<std::uint64_t>(1, rng() >> rng.below(64));
      const std::uint64_t a = rng.below(4) == 0 ? rng() : rng.below(m);
      const std::uint64_t expected = invmod_int128_reference(a, m);
      if (expected == 0 && m != 1) {
        EXPECT_THROW((void)invmod(a, m), UsageError) << "a=" << a << " m=" << m;
      } else {
        EXPECT_EQ(invmod(a, m), expected) << "a=" << a << " m=" << m;
      }
    }
  }
  EXPECT_EQ(invmod(5, 1), 0u);
  EXPECT_EQ(invmod(~0ULL - 1, ~0ULL), invmod_int128_reference(~0ULL - 1, ~0ULL));
  EXPECT_THROW((void)invmod(3, 0), UsageError);
}

TEST(Jacobi, MatchesReferenceExhaustivelyOnSmallOddModuli) {
  for (std::uint64_t n = 1; n < 300; n += 2)
    for (std::uint64_t a = 0; a < 2 * n + 3; ++a)
      EXPECT_EQ(jacobi(a, n), jacobi_reference(a, n)) << "a=" << a << " n=" << n;
}

TEST(Jacobi, IsEulersCriterionModuloAPrime) {
  // (a/p) = a^((p-1)/2) mod p, with p-1 standing for -1.
  stats::Rng rng(3);
  for (const std::uint64_t p :
       {23ULL, 1000000007ULL, 3599462771108323727ULL, 0xFFFFFFFFFFFFFFC5ULL}) {
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t a = i < 3 ? static_cast<std::uint64_t>(i) : rng.below(p);
      const std::uint64_t euler = powmod(a, (p - 1) / 2, p);
      const int expected = euler == 0 ? 0 : (euler == 1 ? 1 : -1);
      EXPECT_EQ(jacobi(a, p), expected) << "a=" << a << " p=" << p;
    }
    EXPECT_EQ(jacobi(p - 1, p), p % 4 == 1 ? 1 : -1);  // (-1/p)
  }
}

TEST(Jacobi, LargeCompositeModuliMatchReference) {
  stats::Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t n = rng() | 1;
    const std::uint64_t a = rng();
    EXPECT_EQ(jacobi(a, n), jacobi_reference(a, n)) << "a=" << a << " n=" << n;
  }
}

TEST(Montgomery, RejectsEvenAndTrivialModuli) {
  EXPECT_THROW(Montgomery(0), UsageError);
  EXPECT_THROW(Montgomery(1), UsageError);
  EXPECT_THROW(Montgomery(22), UsageError);
  EXPECT_NO_THROW(Montgomery(3));
}

TEST(Montgomery, RoundTripsAndReducesEveryInput) {
  for (const std::uint64_t m : montgomery_moduli()) {
    const Montgomery mont(m);
    EXPECT_EQ(mont.from(mont.one()), 1u) << m;
    // to() takes any 64-bit value, the modulus and beyond included.
    const std::vector<std::uint64_t> inputs = {0, 1, m - 1, m, m + 1, 2 * m, ~0ULL, ~0ULL - 1};
    for (const std::uint64_t a : inputs) {
      const std::uint64_t r = mont.to(a);
      EXPECT_LT(r, m);
      EXPECT_EQ(mont.from(r), a % m) << "a=" << a << " m=" << m;
    }
  }
}

TEST(Montgomery, MulAndPowMatchMulmodAndPowmodOverSeedSweep) {
  for (const std::uint64_t m : montgomery_moduli()) {
    const Montgomery mont(m);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      stats::Rng rng(seed * 1000 + m % 997);
      std::vector<std::uint64_t> values = {0, 1, m - 1, m, ~0ULL};
      for (int i = 0; i < 40; ++i) values.push_back(i % 2 == 0 ? rng.below(m) : rng());
      for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        const std::uint64_t a = values[i];
        const std::uint64_t b = values[i + 1];
        const std::uint64_t am = mont.to(a);
        const std::uint64_t bm = mont.to(b);
        ASSERT_EQ(mont.from(mont.mul(am, bm)), mulmod(a, b, m)) << a << "*" << b << " mod " << m;
        // Mixed forms: a Montgomery form times a plain value is the plain product.
        ASSERT_EQ(mont.mul(am, b), mulmod(a, b, m)) << a << "*" << b << " mod " << m;
        const std::uint64_t e = rng() >> rng.below(64);
        for (const std::uint64_t exp : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2}, e})
          ASSERT_EQ(mont.from(mont.pow(am, exp)), powmod(a, exp, m))
              << a << "^" << exp << " mod " << m;
      }
    }
  }
}

TEST(IsPrime, SmallNumbers) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(91));  // 7 * 13
}

TEST(IsPrime, KnownLargePrimes) {
  EXPECT_TRUE(is_prime_u64(2305843009213693951ULL));  // 2^61 - 1 (Mersenne)
  EXPECT_TRUE(is_prime_u64(0xFFFFFFFFFFFFFFC5ULL));   // 2^64 - 59
  EXPECT_TRUE(is_prime_u64(3599462771108323727ULL));  // the standard safe prime p
  EXPECT_TRUE(is_prime_u64(1799731385554161863ULL));  // its q = (p-1)/2
}

TEST(IsPrime, KnownComposites) {
  EXPECT_FALSE(is_prime_u64(2305843009213693953ULL));  // 2^61 + 1
  EXPECT_FALSE(is_prime_u64(3215031751ULL));           // strong pseudoprime to bases 2,3,5,7
  EXPECT_FALSE(is_prime_u64(341550071728321ULL));      // pseudoprime to bases up to 17
}

TEST(IsPrime, CarmichaelNumbers) {
  EXPECT_FALSE(is_prime_u64(561));
  EXPECT_FALSE(is_prime_u64(41041));
  EXPECT_FALSE(is_prime_u64(825265));
}

}  // namespace
}  // namespace simulcast::crypto
