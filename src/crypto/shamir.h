// Shamir secret sharing over a prime field (header-only template).
//
// Works with both Fp61 (fast path: BGW MPC in protocols/theta_mpc) and Zq
// (Schnorr-group exponents: Feldman VSS in crypto/vss.h).  A (t, n) sharing
// uses a degree-t polynomial, so any t+1 shares reconstruct and any t reveal
// nothing.  Share points are x = 1..n (party index + 1, never 0).
#pragma once

#include <cstddef>
#include <vector>

#include "base/error.h"
#include "crypto/hmac.h"

namespace simulcast::crypto {

template <typename F>
struct Share {
  std::uint64_t x = 0;  ///< evaluation point (party index + 1)
  F y{};                ///< polynomial value at x
};

/// Polynomial with coefficients in F, constant term first.
template <typename F>
class Polynomial {
 public:
  explicit Polynomial(std::vector<F> coefficients) : coeffs_(std::move(coefficients)) {
    if (coeffs_.empty()) throw UsageError("Polynomial: no coefficients");
  }

  /// Random polynomial of degree `degree` with the given constant term.
  static Polynomial random(const F& constant_term, std::size_t degree, HmacDrbg& drbg) {
    std::vector<F> coeffs;
    coeffs.reserve(degree + 1);
    coeffs.push_back(constant_term);
    for (std::size_t i = 0; i < degree; ++i) coeffs.push_back(constant_term.sample_same(drbg));
    return Polynomial(std::move(coeffs));
  }

  [[nodiscard]] std::size_t degree() const noexcept { return coeffs_.size() - 1; }
  [[nodiscard]] const std::vector<F>& coefficients() const noexcept { return coeffs_; }

  /// Horner evaluation at x.
  [[nodiscard]] F eval(const F& x) const {
    F acc = coeffs_.back();
    for (std::size_t i = coeffs_.size() - 1; i-- > 0;) acc = acc * x + coeffs_[i];
    return acc;
  }

 private:
  std::vector<F> coeffs_;
};

/// Deals a (threshold, n) sharing of `secret`: a random degree-`threshold`
/// polynomial f with f(0) = secret, shares f(1)..f(n).
/// Requires threshold < n.
template <typename F>
[[nodiscard]] std::vector<Share<F>> shamir_share(const F& secret, std::size_t threshold,
                                                 std::size_t n, HmacDrbg& drbg) {
  if (threshold >= n) throw UsageError("shamir_share: threshold >= n");
  const Polynomial<F> poly = Polynomial<F>::random(secret, threshold, drbg);
  std::vector<Share<F>> shares;
  shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i)
    shares.push_back({i, poly.eval(secret.with_same_modulus(i))});
  return shares;
}

/// Lagrange coefficients λ_j(0), one per share, for interpolation at zero
/// over the points in `shares` (nonempty, all x distinct and nonzero in the
/// field): λ_j = prod_{m≠j} x_m / prod_{m≠j} (x_m - x_j).  The denominators
/// are inverted together by Montgomery's batch-inversion trick (invert their
/// product once, then peel off one factor per step), so the whole set costs
/// one field inversion.  Throws UsageError (from the field) when two points
/// coincide in the field.
template <typename F>
[[nodiscard]] std::vector<F> lagrange_weights_at_zero(const std::vector<Share<F>>& shares) {
  const F one = shares[0].y.with_same_modulus(1);
  std::vector<F> num(shares.size(), one);
  std::vector<F> den(shares.size(), one);
  for (std::size_t j = 0; j < shares.size(); ++j) {
    const F xj = one.with_same_modulus(shares[j].x);
    for (std::size_t m = 0; m < shares.size(); ++m) {
      if (m == j) continue;
      const F xm = one.with_same_modulus(shares[m].x);
      num[j] = num[j] * xm;
      den[j] = den[j] * (xm - xj);
    }
  }
  // prefix[j] = den[0] * ... * den[j-1]; inv walks down from 1/prod(den).
  std::vector<F> prefix(shares.size(), one);
  for (std::size_t j = 1; j < shares.size(); ++j) prefix[j] = prefix[j - 1] * den[j - 1];
  F inv = (prefix.back() * den.back()).inverse();
  for (std::size_t j = shares.size(); j-- > 0;) {
    num[j] = num[j] * (inv * prefix[j]);  // num[j] / den[j]
    inv = inv * den[j];
  }
  return num;
}

/// Reconstructs the secret from any set of shares on distinct points; the
/// caller must supply at least threshold+1 correct shares.  Throws
/// UsageError on duplicate points or an empty set.
template <typename F>
[[nodiscard]] F shamir_reconstruct(const std::vector<Share<F>>& shares) {
  if (shares.empty()) throw UsageError("shamir_reconstruct: no shares");
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].x == 0) throw UsageError("shamir_reconstruct: x == 0");
    for (std::size_t j = i + 1; j < shares.size(); ++j)
      if (shares[i].x == shares[j].x) throw UsageError("shamir_reconstruct: duplicate point");
  }
  const std::vector<F> weights = lagrange_weights_at_zero(shares);
  F acc = shares[0].y.with_same_modulus(0);
  for (std::size_t j = 0; j < shares.size(); ++j) acc = acc + shares[j].y * weights[j];
  return acc;
}

}  // namespace simulcast::crypto
