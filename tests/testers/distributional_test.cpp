// Distribution-level characterizations: stronger than per-definition
// verdicts, these pin down the exact announced-vector laws that the
// paper's constructions induce.
#include <gtest/gtest.h>

#include "core/registry.h"
#include "dist/ensembles.h"
#include "stats/hypothesis.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"

namespace simulcast::testers {
namespace {

constexpr std::uint64_t kSeed = 0xD15Eul;

TEST(Distributional, AttackedPiGAnnouncedLawIsEvenParityUniform) {
  // Under A* with uniform inputs, W = (x0, r, x2, r^y, x4) with
  // y = x0^x2^x4 and everything uniform: W is exactly uniform over the
  // even-parity vectors of {0,1}^5.  Chi-square goodness of fit against
  // the exact law.
  const auto proto = core::make_protocol("flawed-pi-g");
  RunSpec spec;
  spec.protocol = proto.get();
  spec.params.n = 5;
  spec.corrupted = {1, 3};
  spec.adversary = adversary::parity_factory();
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 8000, kSeed).samples;

  stats::EmpiricalDist announced(5);
  for (const Sample& s : samples) announced.add(s.announced);

  const dist::EvenParityEnsemble parity_law(5);
  const stats::TestResult fit = stats::chi2_goodness_of_fit(announced, *parity_law.exact());
  EXPECT_FALSE(fit.rejects(0.001)) << "p = " << fit.p_value << ", stat = " << fit.statistic;
}

TEST(Distributional, HonestProtocolAnnouncedLawEqualsInputLaw) {
  // For every simultaneous protocol, the all-honest announced distribution
  // is exactly the input distribution (here: a biased product).
  const dist::ProductEnsemble law({0.3, 0.7, 0.5, 0.8});
  for (const std::string& name : core::simultaneous_protocol_names()) {
    const auto proto = core::make_protocol(name);
    RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.adversary = adversary::silent_factory();
    const auto samples = exec::Runner().run_batch(spec, law, 4000, kSeed + 1).samples;
    stats::EmpiricalDist announced(4);
    for (const Sample& s : samples) announced.add(s.announced);
    const stats::TestResult fit = stats::chi2_goodness_of_fit(announced, *law.exact());
    EXPECT_FALSE(fit.rejects(0.001)) << name << ": p = " << fit.p_value;
  }
}

TEST(Distributional, CopyAttackAnnouncedLawIsTheCopyDistribution) {
  // seq-broadcast + copy on uniform inputs: W has coordinate 3 glued to
  // coordinate 0 - exactly the hard-copy ensemble's law.
  const auto proto = core::make_protocol("seq-broadcast");
  RunSpec spec;
  spec.protocol = proto.get();
  spec.params.n = 4;
  spec.corrupted = {3};
  spec.adversary = adversary::copy_last_factory(0);
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 6000, kSeed + 2).samples;
  stats::EmpiricalDist announced(4);
  for (const Sample& s : samples) announced.add(s.announced);
  const dist::NoisyCopyEnsemble copy_law(4, 0.0);
  const stats::TestResult fit = stats::chi2_goodness_of_fit(announced, *copy_law.exact());
  EXPECT_FALSE(fit.rejects(0.001)) << "p = " << fit.p_value;
}

TEST(Distributional, TesterVerdictsStableAcrossSeeds) {
  // Meta-test against flakiness: the headline verdicts of E4 hold for
  // three unrelated master seeds.
  const auto proto = core::make_protocol("flawed-pi-g");
  RunSpec spec;
  spec.protocol = proto.get();
  spec.params.n = 5;
  spec.corrupted = {1, 3};
  spec.adversary = adversary::parity_factory();
  const auto ens = dist::make_uniform(5);
  for (const std::uint64_t seed : {1ull, 777ull, 0xDEADBEEFull}) {
    const auto samples = exec::Runner().run_batch(spec, *ens, 2500, seed).samples;
    EXPECT_TRUE(test_g(samples, spec.corrupted).independent) << "seed " << seed;
    const CrVerdict cr = test_cr(samples, spec.corrupted);
    EXPECT_FALSE(cr.independent) << "seed " << seed;
    EXPECT_NEAR(cr.max_gap, 0.25, 0.05) << "seed " << seed;
  }
}

}  // namespace
}  // namespace simulcast::testers
