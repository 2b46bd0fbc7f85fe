// Integration tests of the four independence testers against the known
// ground truth of the paper's constructions: these are the test-suite
// versions of experiments E4-E7.
#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "testers/sb_tester.h"

namespace simulcast::testers {
namespace {

constexpr std::uint64_t kSeed = 20260706;

RunSpec make_spec(const sim::ParallelBroadcastProtocol& proto, std::size_t n,
                  std::vector<sim::PartyId> corrupted, adversary::AdversaryFactory factory) {
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.corrupted = std::move(corrupted);
  spec.adversary = std::move(factory);
  return spec;
}

// ---------------------------------------------------------------- CR tester

TEST(CrTester, GennaroUnderPassiveIsIndependent) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {2}, adversary::passive_factory(*proto, params));
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 1500, kSeed).samples;
  EXPECT_DOUBLE_EQ(consistency_rate(samples), 1.0);
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << v.max_gap << " at predicate " << v.worst.predicate;
}

TEST(CrTester, FlawedPiGUnderParityAdversaryIsViolated) {
  // Lemma 6.4's CR half: the parity predicate shows gap ~ 1/4 on uniform.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 2000, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_FALSE(v.independent);
  EXPECT_NEAR(v.max_gap, 0.25, 0.05);
  EXPECT_EQ(v.worst.predicate, "parity==0");
}

TEST(CrTester, SeqBroadcastUnderCopyIsViolated) {
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 1500, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_FALSE(v.independent);
  EXPECT_GT(v.max_gap, 0.2);
}

TEST(CrTester, SingletonDistributionIsVacuouslyIndependent) {
  // Prop. 6.3, CR half: on a singleton, Pr[W_i = 0] is 0 or 1, so the CR
  // quantity degenerates - even the copy adversary passes.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const dist::SingletonEnsemble ens(BitVec::from_string("1011"));
  const auto samples = exec::Runner().run_batch(spec, ens, 800, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

TEST(CrTester, RequiresSamplesAndHonestParties) {
  EXPECT_THROW((void)test_cr({}, {}), UsageError);
  std::vector<Sample> one(1);
  one[0].announced = BitVec(2);
  EXPECT_THROW((void)test_cr(one, {0, 1}), UsageError);
}

// ----------------------------------------------------------------- G tester

TEST(GTester, FlawedPiGUnderParityAdversaryIsIndependent) {
  // Lemma 6.4's G half: each corrupted coordinate is an unbiased coin
  // whatever the honest announced vector is.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 4000, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
  EXPECT_GT(v.pairs_tested, 0u);
}

TEST(GTester, SelectiveAbortOnNaiveCommitRevealIsViolated) {
  static const crypto::HashCommitmentScheme scheme;
  const auto proto = core::make_protocol("naive-commit-reveal");
  auto spec = make_spec(*proto, 4, {3}, adversary::selective_abort_factory(0, scheme));
  spec.params.commitments = &scheme;
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 3000, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_FALSE(v.independent) << core::describe(v);
  EXPECT_GT(v.worst.gap, 0.8);  // W_3 tracks the victim's bit exactly
}

TEST(GTester, GennaroUnderPassiveIsIndependent) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {1}, adversary::passive_factory(*proto, params));
  const auto ens = dist::make_uniform(4);
  const auto samples = exec::Runner().run_batch(spec, *ens, 3000, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

TEST(GTester, RequiresCorruptedParties) {
  std::vector<Sample> s(1);
  s[0].announced = BitVec(3);
  EXPECT_THROW((void)test_g(s, {}), UsageError);
}

// --------------------------------------------------------------- G** tester

TEST(GssTester, FlawedPiGUnderParityAdversaryIsIndependent) {
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  GssOptions options;
  options.samples_per_input = 300;
  const GssVerdict v = test_gstarstar(spec, options, kSeed);
  EXPECT_TRUE(v.independent) << core::describe(v);
  EXPECT_GT(v.executions, 0u);
}

TEST(GssTester, SeqBroadcastUnderCopyIsViolated) {
  // Fixed-input detection of the copy: flipping the victim's input flips
  // the copier's announced bit with certainty.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  GssOptions options;
  options.samples_per_input = 100;
  const GssVerdict v = test_gstarstar(spec, options, kSeed);
  EXPECT_FALSE(v.independent);
  EXPECT_GT(v.max_gap, 0.9);
  EXPECT_EQ(v.worst.party, 3u);
}

TEST(GssTester, PassiveGennaroIsIndependent) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {1}, adversary::passive_factory(*proto, params));
  GssOptions options;
  options.samples_per_input = 150;
  const GssVerdict v = test_gstarstar(spec, options, kSeed);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

// ---------------------------------------------------------------- Sb tester

TEST(SbTester, GennaroUnderPassiveIsSimulatable) {
  const auto proto = core::make_protocol("gennaro");
  sim::ProtocolParams params;
  params.n = 4;
  const auto spec = make_spec(*proto, 4, {2}, adversary::passive_factory(*proto, params));
  const auto ens = dist::make_uniform(4);
  SbOptions options;
  options.samples = 800;
  const SbVerdict v = test_sb(spec, *ens, options, kSeed);
  EXPECT_TRUE(v.secure) << core::describe(v);
}

TEST(SbTester, SeqBroadcastUnderCopyIsViolated) {
  // Prop. 6.3's Sb half: the copy detector distinguishes real from ideal
  // with advantage ~ 1/2 on uniform inputs.
  const auto proto = core::make_protocol("seq-broadcast");
  const auto spec = make_spec(*proto, 4, {3}, adversary::copy_last_factory(0));
  const auto ens = dist::make_uniform(4);
  SbOptions options;
  options.samples = 800;
  const SbVerdict v = test_sb(spec, *ens, options, kSeed);
  EXPECT_FALSE(v.secure);
  EXPECT_GT(v.max_distinguisher_gap, 0.3);
  EXPECT_EQ(v.worst.distinguisher, "W3==x0");
}

TEST(SbTester, FlawedPiGUnderParityAdversaryIsViolated) {
  // Π_G fails the strongest notion too: in the ideal world the sandbox's
  // honest inputs are all 0, so the parity rigging is detectable.
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  SbOptions options;
  options.samples = 800;
  const SbVerdict v = test_sb(spec, *ens, options, kSeed);
  EXPECT_FALSE(v.secure) << core::describe(v);
}

// Pins the verdict's numbers for one seed, at several pool widths.  The
// values predate running the real and ideal worlds as two engine batches
// (each repetition used to be its own one-execution batch): the per-
// repetition execution seeds, and so every Sb verdict, are unchanged.
TEST(SbTester, VerdictPinnedAcrossThreadCounts) {
  const auto proto = core::make_protocol("flawed-pi-g");
  const auto spec = make_spec(*proto, 5, {1, 3}, adversary::parity_factory());
  const auto ens = dist::make_uniform(5);
  SbOptions options;
  options.samples = 300;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    exec::set_default_threads(threads);
    const SbVerdict v = test_sb(spec, *ens, options, 0x5B);
    EXPECT_DOUBLE_EQ(v.tv_joint, 0.57000000000000017) << threads;
    EXPECT_DOUBLE_EQ(v.max_distinguisher_gap, 0.45333333333333337) << threads;
    EXPECT_DOUBLE_EQ(v.radius, 0.23771651459803941) << threads;
    EXPECT_EQ(v.worst.distinguisher, "parity(W)==0") << threads;
    EXPECT_FALSE(v.secure) << threads;
  }
  exec::set_default_threads(0);
}

}  // namespace
}  // namespace simulcast::testers
