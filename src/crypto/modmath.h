// 64-bit modular arithmetic and primality testing.
//
// Two families of kernels live here.  Montgomery is the Schnorr group's
// (crypto/group.h): division-free multiplication modulo an odd modulus.
// The plain mulmod/powmod reduce an unsigned __int128 product with `%`
// (a libgcc division call) and serve the runtime-modulus field Zq
// (crypto/field.h), whose modulus may be even, and is_prime_u64.
#pragma once

#include <cstdint>

namespace simulcast::crypto {

/// (a * b) mod m via 128-bit intermediate.  Precondition: m != 0.
[[nodiscard]] std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept;

/// (base ^ exp) mod m by square-and-multiply.  Precondition: m != 0.
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                                   std::uint64_t m) noexcept;

/// Modular inverse of a mod m via extended Euclid on 64-bit words; throws
/// simulcast::UsageError when m == 0 or gcd(a, m) != 1.
[[nodiscard]] std::uint64_t invmod(std::uint64_t a, std::uint64_t m);

/// Jacobi symbol (a / n) in {-1, 0, 1} for odd n, by the binary algorithm
/// (shifts, subtractions and swaps; no division).  For a prime n it is the
/// Legendre symbol: 1 exactly on the nonzero quadratic residues.
/// Precondition: n odd.
[[nodiscard]] int jacobi(std::uint64_t a, std::uint64_t n) noexcept;

/// Deterministic Miller-Rabin, correct for all 64-bit inputs (fixed witness
/// set {2,3,5,7,11,13,17,19,23,29,31,37}).
[[nodiscard]] bool is_prime_u64(std::uint64_t n) noexcept;

/// Montgomery arithmetic modulo an odd m > 1 with R = 2^64.  A residue a is
/// held in Montgomery form aR mod m; mul(aR, bR) = abR mod m costs two
/// 64x64->128 multiplications and no division (REDC).  Every result is the
/// canonical representative in [0, m), so two Montgomery forms are equal
/// exactly when the residues they stand for are.
///
/// mul(a, b) is REDC(a·b) = a·b·R^-1 mod m, defined whenever a·b < m·2^64,
/// e.g. when a < m.  Mixing forms is therefore useful: mul(aR, b) with a
/// plain b yields the plain product ab.
class Montgomery {
 public:
  Montgomery() = default;
  /// Throws UsageError unless m is odd and greater than 1.
  explicit Montgomery(std::uint64_t m);

  /// 1 in Montgomery form (R mod m).
  [[nodiscard]] std::uint64_t one() const noexcept { return one_; }

  /// Montgomery form of a mod m, for any 64-bit a (a >= m included).
  [[nodiscard]] std::uint64_t to(std::uint64_t a) const noexcept { return mul(a, r2_); }
  /// The plain residue of a Montgomery form.
  [[nodiscard]] std::uint64_t from(std::uint64_t a) const noexcept { return redc(a, 0); }

  /// REDC(a·b).  Precondition: a·b < m·2^64 (holds when a < m or b < m).
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
    return redc(static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(t >> 64));
  }

  /// a^e with a and the result in Montgomery form (left-to-right binary).
  [[nodiscard]] std::uint64_t pow(std::uint64_t a, std::uint64_t e) const noexcept;

 private:
  // (hi·2^64 + lo)·R^-1 mod m for hi < m.  With u = lo·m^-1 mod 2^64 the
  // low words of t and u·m agree, so (t - u·m)/2^64 = hi - mulhi(u, m),
  // which lies in (-m, m): one conditional add makes it canonical.
  [[nodiscard]] std::uint64_t redc(std::uint64_t lo, std::uint64_t hi) const noexcept {
    const std::uint64_t u = lo * inv_;
    const auto um_hi =
        static_cast<std::uint64_t>((static_cast<unsigned __int128>(u) * m_) >> 64);
    return hi >= um_hi ? hi - um_hi : hi - um_hi + m_;
  }

  std::uint64_t m_ = 0;
  std::uint64_t inv_ = 0;  ///< m^-1 mod 2^64
  std::uint64_t one_ = 0;  ///< R mod m
  std::uint64_t r2_ = 0;   ///< R^2 mod m
};

}  // namespace simulcast::crypto
