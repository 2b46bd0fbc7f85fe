#include "crypto/group.h"

#include <gtest/gtest.h>

#include <memory>

#include "base/error.h"
#include "crypto/modmath.h"
#include "stats/rng.h"

namespace simulcast::crypto {
namespace {

TEST(SchnorrGroup, StandardParametersValidate) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  EXPECT_TRUE(is_prime_u64(g.p()));
  EXPECT_TRUE(is_prime_u64(g.q()));
  EXPECT_EQ(g.p(), 2 * g.q() + 1);
  EXPECT_TRUE(g.is_element(g.g()));
  EXPECT_TRUE(g.is_element(g.h()));
  EXPECT_NE(g.g(), g.h());
}

TEST(SchnorrGroup, RejectsBadParameters) {
  EXPECT_THROW(SchnorrGroup(15, 7, 4), UsageError);            // p composite
  EXPECT_THROW(SchnorrGroup(23, 9, 4), UsageError);            // q composite
  EXPECT_THROW(SchnorrGroup(23, 7, 4), UsageError);            // p != 2q+1
  EXPECT_THROW(SchnorrGroup(23, 11, 5), UsageError);           // 5^11 != 1 mod 23
  EXPECT_THROW(SchnorrGroup(23, 11, 1), UsageError);           // trivial g
}

TEST(SchnorrGroup, SmallGroupArithmetic) {
  // p = 23 = 2*11 + 1; QRs mod 23: g = 4.
  const SchnorrGroup g(23, 11, 4);
  EXPECT_EQ(g.exp_g(Zq(0, 11)), 1u);
  EXPECT_EQ(g.exp_g(Zq(1, 11)), 4u);
  EXPECT_EQ(g.exp_g(Zq(2, 11)), 16u);
  EXPECT_EQ(g.mul(4, 16), 64 % 23);
  EXPECT_EQ(g.mul(g.exp_g(Zq(3, 11)), g.inv(g.exp_g(Zq(3, 11)))), 1u);
}

TEST(SchnorrGroup, ExponentHomomorphism) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  HmacDrbg drbg(1, "grp");
  for (int i = 0; i < 10; ++i) {
    const Zq a = g.sample_exponent(drbg);
    const Zq b = g.sample_exponent(drbg);
    EXPECT_EQ(g.mul(g.exp_g(a), g.exp_g(b)), g.exp_g(a + b));
    EXPECT_EQ(g.exp(g.exp_g(a), b), g.exp_g(a * b));
  }
}

TEST(SchnorrGroup, ExponentModulusChecked) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  EXPECT_THROW((void)g.exp_g(Zq(1, 101)), UsageError);
}

TEST(SchnorrGroup, IsElementRejectsNonResidues) {
  const SchnorrGroup g(23, 11, 4);
  // QRs mod 23 are {1,2,3,4,6,8,9,12,13,16,18}; 5 and 7 are not.
  EXPECT_FALSE(g.is_element(5));
  EXPECT_FALSE(g.is_element(7));
  EXPECT_FALSE(g.is_element(0));
  EXPECT_FALSE(g.is_element(23));
  EXPECT_TRUE(g.is_element(2));
  EXPECT_TRUE(g.is_element(1));
}

TEST(SchnorrGroup, IsElementIsEulersCriterionExhaustivelyOnSmallGroup) {
  const SchnorrGroup g(23, 11, 4);
  for (std::uint64_t a = 0; a < 2 * 23; ++a) {
    const bool expected = a != 0 && a < 23 && powmod(a, 11, 23) == 1;
    EXPECT_EQ(g.is_element(a), expected) << "a=" << a;
  }
}

TEST(SchnorrGroup, IsElementIsEulersCriterionOnStandardGroup) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  stats::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    // Mostly below p, some at or above it.
    const std::uint64_t a = i % 4 == 0 ? rng() : rng.below(g.p());
    const bool expected = a != 0 && a < g.p() && powmod(a, g.q(), g.p()) == 1;
    EXPECT_EQ(g.is_element(a), expected) << "a=" << a;
  }
  EXPECT_FALSE(g.is_element(g.p() - 1));  // -1 is a non-residue since p = 3 (mod 4)
  EXPECT_TRUE(g.is_element(1));
  EXPECT_FALSE(g.is_element(0));
  EXPECT_FALSE(g.is_element(g.p()));
  EXPECT_FALSE(g.is_element(g.p() + 1));
}

TEST(SchnorrGroup, OperationsMatchPowmodReference) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  stats::Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    const Zq a{rng.below(g.q()), g.q()};
    const Zq b{rng.below(g.q()), g.q()};
    const std::uint64_t x = i % 3 == 0 ? rng() : rng.below(g.p());  // some bases >= p
    const std::uint64_t y = rng();
    EXPECT_EQ(g.exp_g(a), powmod(g.g(), a.value(), g.p()));
    EXPECT_EQ(g.exp_h(b), powmod(g.h(), b.value(), g.p()));
    EXPECT_EQ(g.exp_gh(a, b), mulmod(g.exp_g(a), g.exp_h(b), g.p()));
    EXPECT_EQ(g.exp(x, a), powmod(x, a.value(), g.p()));
    EXPECT_EQ(g.mul(x, y), mulmod(x, y, g.p()));
  }
  EXPECT_EQ(g.exp_g(Zq(0, g.q())), 1u);
  EXPECT_EQ(g.exp(0, Zq(0, g.q())), 1u);
  EXPECT_EQ(g.exp(g.p(), Zq(5, g.q())), 0u);
  EXPECT_THROW((void)g.exp_gh(Zq(1, 101), Zq(1, g.q())), UsageError);
}

TEST(SchnorrGroup, CopyOutlivesTheOriginal) {
  // The fixed-base tables carry their own Montgomery context, so a copy
  // holds no pointer into the group it was copied from.
  const SchnorrGroup& standard = SchnorrGroup::standard();
  auto original = std::make_unique<SchnorrGroup>(standard.p(), standard.q(), standard.g());
  const SchnorrGroup copy = *original;
  original.reset();
  HmacDrbg drbg(3, "copy");
  for (int i = 0; i < 20; ++i) {
    const Zq a = copy.sample_exponent(drbg);
    const Zq b = copy.sample_exponent(drbg);
    EXPECT_EQ(copy.exp_g(a), powmod(copy.g(), a.value(), copy.p()));
    EXPECT_EQ(copy.exp_h(b), powmod(copy.h(), b.value(), copy.p()));
    EXPECT_EQ(copy.exp_gh(a, b), standard.exp_gh(a, b));
    EXPECT_TRUE(copy.is_element(copy.exp_g(a)));
  }
}

TEST(SchnorrGroup, HashToGroupLandsInSubgroup) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  for (const char* label : {"a", "b", "c", "longer-label"}) {
    const std::uint64_t e = g.hash_to_group(label);
    EXPECT_TRUE(g.is_element(e)) << label;
    EXPECT_NE(e, 1u);
  }
}

TEST(SchnorrGroup, HashToGroupIsDeterministicAndSeparated) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  EXPECT_EQ(g.hash_to_group("x"), g.hash_to_group("x"));
  EXPECT_NE(g.hash_to_group("x"), g.hash_to_group("y"));
}

TEST(SchnorrGroup, SampleExponentInRange) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  HmacDrbg drbg(2, "exp");
  for (int i = 0; i < 50; ++i) {
    const Zq e = g.sample_exponent(drbg);
    EXPECT_EQ(e.modulus(), g.q());
    EXPECT_LT(e.value(), g.q());
  }
}

TEST(SchnorrGroup, GeneratorHasOrderQ) {
  const SchnorrGroup& g = SchnorrGroup::standard();
  // g^q = 1 and g != 1 implies order q (q prime).
  EXPECT_EQ(powmod(g.g(), g.q(), g.p()), 1u);
  EXPECT_NE(g.g(), 1u);
  EXPECT_EQ(powmod(g.h(), g.q(), g.p()), 1u);
}

}  // namespace
}  // namespace simulcast::crypto
