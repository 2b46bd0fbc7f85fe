#include "mpc/bgw.h"

#include "base/error.h"

namespace simulcast::mpc {

using crypto::Fp61;

BgwEngine::BgwEngine(std::size_t n, std::size_t threshold, std::uint64_t seed)
    : n_(n), t_(threshold), drbg_(seed, "simulcast/bgw") {
  if (n < 3) throw UsageError("BgwEngine: need n >= 3");
  if (2 * threshold >= n)
    throw UsageError("BgwEngine: multiplication needs 2t < n (honest majority)");
  if (threshold == 0) throw UsageError("BgwEngine: threshold must be >= 1");
}

SharedValue BgwEngine::share(Fp61 secret) {
  const auto shares = crypto::shamir_share(secret, t_, n_, drbg_);
  SharedValue v;
  v.shares.reserve(n_);
  for (const auto& s : shares) v.shares.push_back(s.y);
  return v;
}

void BgwEngine::check(const SharedValue& v) const {
  if (v.shares.size() != n_) throw UsageError("BgwEngine: share vector of wrong width");
}

SharedValue BgwEngine::add(const SharedValue& a, const SharedValue& b) const {
  check(a);
  check(b);
  SharedValue out;
  out.shares.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) out.shares.push_back(a.shares[i] + b.shares[i]);
  return out;
}

SharedValue BgwEngine::sub(const SharedValue& a, const SharedValue& b) const {
  check(a);
  check(b);
  SharedValue out;
  out.shares.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) out.shares.push_back(a.shares[i] - b.shares[i]);
  return out;
}

SharedValue BgwEngine::scale(const SharedValue& a, Fp61 constant) const {
  check(a);
  SharedValue out;
  out.shares.reserve(n_);
  for (const Fp61& s : a.shares) out.shares.push_back(s * constant);
  return out;
}

SharedValue BgwEngine::add_constant(const SharedValue& a, Fp61 constant) const {
  // Adding a public constant shifts the polynomial's constant term; every
  // share moves by the same amount because the shift polynomial is constant.
  check(a);
  SharedValue out;
  out.shares.reserve(n_);
  for (const Fp61& s : a.shares) out.shares.push_back(s + constant);
  return out;
}

SharedValue BgwEngine::mul(const SharedValue& a, const SharedValue& b) {
  check(a);
  check(b);
  ++rounds_;
  // Step 1: local products d_i = a_i * b_i lie on a degree-2t polynomial
  // with constant term ab.
  // Step 2: each party reshares d_i with a fresh degree-t polynomial.
  std::vector<std::vector<crypto::Share<Fp61>>> reshared(n_);
  for (std::size_t i = 0; i < n_; ++i)
    reshared[i] = crypto::shamir_share(a.shares[i] * b.shares[i], t_, n_, drbg_);
  // Step 3: recombine with the degree-2t Lagrange weights at zero over the
  // full point set {1..n}.
  std::vector<crypto::Share<Fp61>> points;
  points.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) points.push_back({i + 1, Fp61(0)});
  const std::vector<Fp61> lambda = crypto::lagrange_weights_at_zero(points);

  SharedValue out;
  out.shares.assign(n_, Fp61(0));
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t i = 0; i < n_; ++i) {
      // Party j's new share: sum_i lambda_i * (i's reshare for j).
      out.shares[j] += lambda[i] * reshared[i][j].y;
    }
  }
  return out;
}

SharedValue BgwEngine::bit_xor(const SharedValue& a, const SharedValue& b) {
  // a xor b = a + b - 2ab for a, b in {0, 1}.
  const SharedValue ab = mul(a, b);
  return sub(add(a, b), scale(ab, Fp61(2)));
}

SharedValue BgwEngine::bit_and(const SharedValue& a, const SharedValue& b) {
  return mul(a, b);
}

SharedValue BgwEngine::bit_not(const SharedValue& a) const {
  const SharedValue neg = scale(a, Fp61(Fp61::kModulus - 1));  // -a
  return add_constant(neg, Fp61(1));
}

Fp61 BgwEngine::open(const SharedValue& value) const {
  std::vector<std::size_t> subset(t_ + 1);
  for (std::size_t i = 0; i <= t_; ++i) subset[i] = i;
  return open_with(value, subset);
}

Fp61 BgwEngine::open_with(const SharedValue& value,
                          const std::vector<std::size_t>& party_subset) const {
  check(value);
  if (party_subset.size() < t_ + 1) throw UsageError("BgwEngine: not enough shares to open");
  std::vector<crypto::Share<Fp61>> shares;
  shares.reserve(party_subset.size());
  for (std::size_t i : party_subset) {
    if (i >= n_) throw UsageError("BgwEngine: party index out of range");
    shares.push_back({i + 1, value.shares[i]});
  }
  return crypto::shamir_reconstruct(shares);
}

}  // namespace simulcast::mpc
