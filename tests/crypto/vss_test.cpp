#include "crypto/vss.h"

#include <gtest/gtest.h>

#include "crypto/modmath.h"

namespace simulcast::crypto {
namespace {

/// prod_j C_j^{x^j} mod p with powmod/mulmod only: each C_j reduced mod p
/// and raised to x^j mod q.
std::uint64_t commitment_product_reference(const SchnorrGroup& group,
                                           const std::vector<std::uint64_t>& commitments,
                                           std::uint64_t x) {
  std::uint64_t product = 1;
  std::uint64_t x_power = 1;  // x^j mod q
  for (const std::uint64_t c : commitments) {
    product = mulmod(product, powmod(c, x_power, group.p()), group.p());
    x_power = mulmod(x_power, x % group.q(), group.q());
  }
  return product;
}

bool pedersen_verify_reference(const SchnorrGroup& group,
                               const std::vector<std::uint64_t>& commitments,
                               const PedersenShare& share) {
  const std::uint64_t lhs = mulmod(powmod(group.g(), share.value.value(), group.p()),
                                   powmod(group.h(), share.blinding.value(), group.p()), group.p());
  return lhs == commitment_product_reference(group, commitments, share.x);
}

bool feldman_verify_reference(const SchnorrGroup& group, const FeldmanCommitments& commitments,
                              const Share<Zq>& share) {
  return powmod(group.g(), share.y.value(), group.p()) ==
         commitment_product_reference(group, commitments.coefficients, share.x);
}

class FeldmanTest : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::standard();
  FeldmanVss vss_{group_};
  HmacDrbg drbg_{1, "vss-test"};
  Zq secret_{424242, group_.q()};
};

TEST_F(FeldmanTest, DealVerifiesAllShares) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  ASSERT_EQ(deal.shares.size(), 5u);
  EXPECT_TRUE(vss_.verify_commitments(deal.commitments, 2));
  for (const auto& share : deal.shares)
    EXPECT_TRUE(vss_.verify_share(deal.commitments, share)) << "share " << share.x;
}

TEST_F(FeldmanTest, TamperedShareRejected) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  Share<Zq> bad = deal.shares[0];
  bad.y = bad.y + Zq(1, group_.q());
  EXPECT_FALSE(vss_.verify_share(deal.commitments, bad));
}

TEST_F(FeldmanTest, ShareAtWrongPointRejected) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  Share<Zq> moved = deal.shares[0];
  moved.x = deal.shares[1].x;
  EXPECT_FALSE(vss_.verify_share(deal.commitments, moved));
}

TEST_F(FeldmanTest, ReconstructFromSubset) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  const std::vector<Share<Zq>> subset = {deal.shares[0], deal.shares[2], deal.shares[4]};
  EXPECT_EQ(vss_.reconstruct(subset), secret_);
}

TEST_F(FeldmanTest, CommittedPublicValueIsGToSecret) {
  const FeldmanDeal deal = vss_.deal(secret_, 3, 6, drbg_);
  EXPECT_EQ(vss_.committed_public_value(deal.commitments), group_.exp_g(secret_));
}

TEST_F(FeldmanTest, CommitmentCountChecked) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  EXPECT_FALSE(vss_.verify_commitments(deal.commitments, 3));
  EXPECT_FALSE(vss_.verify_commitments(deal.commitments, 1));
}

TEST_F(FeldmanTest, NonSubgroupCommitmentRejected) {
  FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  // Replace a coefficient with a quadratic non-residue.
  std::uint64_t bad = 2;
  while (group_.is_element(bad)) ++bad;
  deal.commitments.coefficients[1] = bad;
  EXPECT_FALSE(vss_.verify_commitments(deal.commitments, 2));
}

TEST_F(FeldmanTest, WrongFieldSecretThrows) {
  EXPECT_THROW(vss_.deal(Zq(5, 101), 2, 5, drbg_), UsageError);
}

TEST_F(FeldmanTest, ConsistencyAcrossDistinctDeals) {
  // Two deals of the same secret must still verify independently (fresh
  // randomness, fresh commitments).
  const FeldmanDeal d1 = vss_.deal(secret_, 2, 5, drbg_);
  const FeldmanDeal d2 = vss_.deal(secret_, 2, 5, drbg_);
  EXPECT_NE(d1.commitments.coefficients[1], d2.commitments.coefficients[1]);
  EXPECT_FALSE(vss_.verify_share(d1.commitments, d2.shares[0]) &&
               vss_.verify_share(d1.commitments, d2.shares[1]) &&
               vss_.verify_share(d1.commitments, d2.shares[2]));
}

TEST_F(FeldmanTest, WireEncodingRoundTrip) {
  const FeldmanDeal deal = vss_.deal(secret_, 2, 5, drbg_);
  const Bytes enc = encode_feldman_commitments(deal.commitments);
  const FeldmanCommitments dec = decode_feldman_commitments(enc);
  EXPECT_EQ(dec.coefficients, deal.commitments.coefficients);

  const Bytes senc = encode_share(deal.shares[3]);
  const Share<Zq> sdec = decode_share(senc, group_.q());
  EXPECT_EQ(sdec.x, deal.shares[3].x);
  EXPECT_EQ(sdec.y, deal.shares[3].y);
}

TEST_F(FeldmanTest, OversizedCommitmentDecodingRejected) {
  ByteWriter w;
  w.u32(100000);
  EXPECT_THROW(decode_feldman_commitments(w.data()), ProtocolError);
}

TEST_F(FeldmanTest, ThresholdPropertyAcrossParameters) {
  for (std::size_t n : {3u, 5u, 9u}) {
    for (std::size_t t = 1; t < n; ++t) {
      const Zq s(1000 + n * 10 + t, group_.q());
      const FeldmanDeal deal = vss_.deal(s, t, n, drbg_);
      std::vector<Share<Zq>> subset(deal.shares.begin(),
                                    deal.shares.begin() + static_cast<std::ptrdiff_t>(t + 1));
      EXPECT_EQ(vss_.reconstruct(subset), s) << "n=" << n << " t=" << t;
    }
  }
}

TEST_F(FeldmanTest, VerifyShareMatchesPowmodReference) {
  for (std::size_t t : {0u, 1u, 3u, 7u}) {
    const FeldmanDeal deal = vss_.deal(secret_, t, t + 3, drbg_);
    for (const Share<Zq>& share : deal.shares) {
      EXPECT_TRUE(feldman_verify_reference(group_, deal.commitments, share));
      EXPECT_TRUE(vss_.verify_share(deal.commitments, share));
      Share<Zq> tampered = share;
      tampered.y = tampered.y + Zq(1, group_.q());
      EXPECT_FALSE(feldman_verify_reference(group_, deal.commitments, tampered));
      EXPECT_FALSE(vss_.verify_share(deal.commitments, tampered));
    }
    // Commitments at or above p verify as their residues.
    FeldmanCommitments lifted = deal.commitments;
    for (std::uint64_t& c : lifted.coefficients) c += group_.p();
    for (const Share<Zq>& share : deal.shares) {
      EXPECT_EQ(vss_.verify_share(lifted, share),
                feldman_verify_reference(group_, lifted, share));
      EXPECT_TRUE(vss_.verify_share(lifted, share));
    }
  }
}

class PedersenTest : public ::testing::Test {
 protected:
  const SchnorrGroup& group_ = SchnorrGroup::standard();
  PedersenVss vss_{group_};
  HmacDrbg drbg_{2, "pedersen-test"};
};

TEST_F(PedersenTest, VerifyShareMatchesPowmodReference) {
  for (std::size_t t : {0u, 1u, 3u, 7u}) {
    const PedersenDeal deal = vss_.deal(Zq(1, group_.q()), t, 2 * t + 1, drbg_);
    for (const PedersenShare& share : deal.shares) {
      EXPECT_TRUE(pedersen_verify_reference(group_, deal.commitments, share));
      EXPECT_TRUE(vss_.verify_share(deal.commitments, share));

      PedersenShare bad_value = share;
      bad_value.value = bad_value.value + Zq(1, group_.q());
      PedersenShare bad_blinding = share;
      bad_blinding.blinding = bad_blinding.blinding + Zq(1, group_.q());
      PedersenShare bad_point = share;
      bad_point.x += 1;  // a constant polynomial (t = 0) takes the same value there
      for (const PedersenShare& bad : {bad_value, bad_blinding, bad_point}) {
        EXPECT_EQ(vss_.verify_share(deal.commitments, bad),
                  pedersen_verify_reference(group_, deal.commitments, bad));
        EXPECT_EQ(vss_.verify_share(deal.commitments, bad), t == 0 && bad.x != share.x);
      }
    }
  }
}

TEST_F(PedersenTest, TamperedAndOutOfRangeCommitmentsAgreeWithReference) {
  const PedersenDeal deal = vss_.deal(Zq(0, group_.q()), 3, 7, drbg_);
  for (std::size_t j = 0; j < deal.commitments.size(); ++j) {
    // C_j + p is the same residue: both paths still accept.
    std::vector<std::uint64_t> lifted = deal.commitments;
    lifted[j] += group_.p();
    // C_j * g is a different element: both paths reject.
    std::vector<std::uint64_t> shifted = deal.commitments;
    shifted[j] = group_.mul(shifted[j], group_.g());
    // Arbitrary 64-bit words, non-residues and values >= p included.
    std::vector<std::uint64_t> garbage = deal.commitments;
    garbage[j] = drbg_.next_u64();
    for (const PedersenShare& share : deal.shares) {
      EXPECT_TRUE(vss_.verify_share(lifted, share));
      EXPECT_TRUE(pedersen_verify_reference(group_, lifted, share));
      EXPECT_FALSE(vss_.verify_share(shifted, share));
      EXPECT_FALSE(pedersen_verify_reference(group_, shifted, share));
      EXPECT_EQ(vss_.verify_share(garbage, share),
                pedersen_verify_reference(group_, garbage, share));
    }
  }
}

}  // namespace
}  // namespace simulcast::crypto
