#include "crypto/shamir.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/field.h"
#include "crypto/group.h"

namespace simulcast::crypto {
namespace {

/// λ_j(0) one term at a time, one inversion per term.
template <typename F>
F lagrange_term_reference(const std::vector<Share<F>>& shares, std::size_t j) {
  const F xj = shares[j].y.with_same_modulus(shares[j].x);
  F num = xj.with_same_modulus(1);
  F den = xj.with_same_modulus(1);
  for (std::size_t m = 0; m < shares.size(); ++m) {
    if (m == j) continue;
    const F xm = xj.with_same_modulus(shares[m].x);
    num = num * xm;
    den = den * (xm - xj);
  }
  return num * den.inverse();
}

/// `count` shares on distinct nonzero points drawn from [1, range].
template <typename F>
std::vector<Share<F>> random_points(HmacDrbg& drbg, const F& like, std::size_t count,
                                    std::uint64_t range) {
  std::vector<Share<F>> shares;
  while (shares.size() < count) {
    const std::uint64_t x = 1 + drbg.below(range);
    if (std::any_of(shares.begin(), shares.end(), [x](const Share<F>& s) { return s.x == x; }))
      continue;
    shares.push_back({x, like.sample_same(drbg)});
  }
  return shares;
}

template <typename F>
void expect_weights_match_per_term(const F& like, std::uint64_t range, const char* label) {
  HmacDrbg drbg(9, label);
  for (std::size_t count = 1; count <= 12; ++count) {
    for (int trial = 0; trial < 10; ++trial) {
      const std::vector<Share<F>> shares = random_points(drbg, like, count, range);
      const std::vector<F> weights = lagrange_weights_at_zero(shares);
      ASSERT_EQ(weights.size(), count);
      for (std::size_t j = 0; j < count; ++j)
        EXPECT_EQ(weights[j], lagrange_term_reference(shares, j))
            << label << " count=" << count << " j=" << j;
    }
  }
}

TEST(Polynomial, EvalHorner) {
  // f(x) = 3 + 2x + x^2 over Fp61.
  const Polynomial<Fp61> f({Fp61(3), Fp61(2), Fp61(1)});
  EXPECT_EQ(f.eval(Fp61(0)), Fp61(3));
  EXPECT_EQ(f.eval(Fp61(1)), Fp61(6));
  EXPECT_EQ(f.eval(Fp61(2)), Fp61(11));
  EXPECT_EQ(f.degree(), 2u);
}

TEST(Polynomial, EmptyCoefficientsThrows) {
  EXPECT_THROW(Polynomial<Fp61>({}), UsageError);
}

TEST(Polynomial, RandomHasRequestedDegreeAndConstantTerm) {
  HmacDrbg drbg(1, "poly");
  const auto f = Polynomial<Fp61>::random(Fp61(42), 5, drbg);
  EXPECT_EQ(f.degree(), 5u);
  EXPECT_EQ(f.eval(Fp61(0)), Fp61(42));
}

TEST(Lagrange, BatchInvertedWeightsMatchPerTermFormula) {
  const std::uint64_t q = SchnorrGroup::standard().q();
  expect_weights_match_per_term(Fp61(1), 16, "fp61-small");
  expect_weights_match_per_term(Fp61(1), ~0ULL - 1, "fp61-wide");
  expect_weights_match_per_term(Zq(1, q), 16, "zq-small");
  expect_weights_match_per_term(Zq(1, q), q - 1, "zq-wide");
  expect_weights_match_per_term(Zq(1, 23), 22, "zq-tiny");
}

TEST(Lagrange, PointsCoincidingInTheFieldThrow) {
  // x and x + q are distinct integers but the same field point.
  const std::uint64_t q = 101;
  const std::vector<Share<Zq>> shares = {{3, Zq(1, q)}, {5, Zq(2, q)}, {3 + q, Zq(3, q)}};
  EXPECT_THROW((void)lagrange_weights_at_zero(shares), UsageError);
  EXPECT_THROW((void)shamir_reconstruct(shares), UsageError);
}

TEST(Shamir, ShareAndReconstructFp61) {
  HmacDrbg drbg(2, "shamir");
  const Fp61 secret(123456789);
  const auto shares = shamir_share(secret, 2, 5, drbg);
  ASSERT_EQ(shares.size(), 5u);
  // Any 3 shares reconstruct.
  const std::vector<Share<Fp61>> subset = {shares[0], shares[2], shares[4]};
  EXPECT_EQ(shamir_reconstruct(subset), secret);
  // All 5 also reconstruct.
  EXPECT_EQ(shamir_reconstruct(shares), secret);
}

TEST(Shamir, ShareAndReconstructZq) {
  HmacDrbg drbg(3, "shamir-zq");
  const std::uint64_t q = SchnorrGroup::standard().q();
  const Zq secret(987654321, q);
  const auto shares = shamir_share(secret, 1, 4, drbg);
  const std::vector<Share<Zq>> subset = {shares[1], shares[3]};
  EXPECT_EQ(shamir_reconstruct(subset), secret);
}

TEST(Shamir, ThresholdSharesDoNotDetermineSecret) {
  // With t = 2, two different secrets can produce identical pairs of shares;
  // verify reconstruction from only 2 of 5 shares differs from the secret
  // for at least some random instance (statistical sanity of hiding).
  HmacDrbg drbg(4, "hide");
  const Fp61 secret(7);
  int mismatches = 0;
  for (int rep = 0; rep < 10; ++rep) {
    const auto shares = shamir_share(secret, 2, 5, drbg);
    const std::vector<Share<Fp61>> two = {shares[0], shares[1]};
    // Lagrange through 2 points of a degree-2 polynomial is underdetermined.
    if (shamir_reconstruct(two) != secret) ++mismatches;
  }
  EXPECT_GT(mismatches, 5);
}

TEST(Shamir, ThresholdEqualNThrows) {
  HmacDrbg drbg(5, "bad");
  EXPECT_THROW((void)shamir_share(Fp61(1), 5, 5, drbg), UsageError);
  EXPECT_THROW((void)shamir_share(Fp61(1), 7, 5, drbg), UsageError);
}

TEST(Shamir, ReconstructValidation) {
  EXPECT_THROW((void)shamir_reconstruct(std::vector<Share<Fp61>>{}), UsageError);
  const std::vector<Share<Fp61>> dup = {{1, Fp61(3)}, {1, Fp61(4)}};
  EXPECT_THROW((void)shamir_reconstruct(dup), UsageError);
  const std::vector<Share<Fp61>> zero_x = {{0, Fp61(3)}};
  EXPECT_THROW((void)shamir_reconstruct(zero_x), UsageError);
}

TEST(Shamir, ZeroThresholdIsReplication) {
  HmacDrbg drbg(6, "zero-t");
  const auto shares = shamir_share(Fp61(99), 0, 3, drbg);
  for (const auto& s : shares) EXPECT_EQ(s.y, Fp61(99));
}

TEST(Shamir, LinearityOfSharing) {
  // Shamir is linear: sharewise sum reconstructs to the sum of secrets.
  HmacDrbg drbg(7, "linear");
  const auto a = shamir_share(Fp61(100), 2, 5, drbg);
  const auto b = shamir_share(Fp61(23), 2, 5, drbg);
  std::vector<Share<Fp61>> sum(5);
  for (std::size_t i = 0; i < 5; ++i) sum[i] = {a[i].x, a[i].y + b[i].y};
  const std::vector<Share<Fp61>> subset = {sum[0], sum[2], sum[3]};
  EXPECT_EQ(shamir_reconstruct(subset), Fp61(123));
}

TEST(Shamir, AnySubsetOfThresholdPlusOneAgrees) {
  HmacDrbg drbg(8, "subsets");
  const Fp61 secret(31337);
  const auto shares = shamir_share(secret, 2, 6, drbg);
  // All 3-subsets of 6 shares reconstruct identically.
  std::vector<std::size_t> idx = {0, 1, 2, 3, 4, 5};
  std::vector<bool> pick(6, false);
  std::fill(pick.begin(), pick.begin() + 3, true);
  int checked = 0;
  do {
    std::vector<Share<Fp61>> subset;
    for (std::size_t i = 0; i < 6; ++i)
      if (pick[i]) subset.push_back(shares[i]);
    EXPECT_EQ(shamir_reconstruct(subset), secret);
    ++checked;
  } while (std::prev_permutation(pick.begin(), pick.end()));
  EXPECT_EQ(checked, 20);
}

}  // namespace
}  // namespace simulcast::crypto
