// Backend-equivalence tests: the independence verdicts for Π_G must not
// depend on whether Θ is the ideal functionality or the real MPC
// (the DESIGN.md substitution argument, unit-test form of the E4 ablation).
#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/report.h"
#include "protocols/theta_mpc.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"

namespace simulcast::testers {
namespace {

constexpr std::uint64_t kSeed = 0xABBA;

RunSpec mpc_spec(const sim::ParallelBroadcastProtocol& proto) {
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = 5;
  spec.corrupted = {1, 3};
  const auto* typed = dynamic_cast<const protocols::ThetaMpcProtocol*>(&proto);
  spec.adversary = adversary::theta_mpc_parity_factory(*typed, spec.params);
  return spec;
}

TEST(MpcBackend, ParityAttackForcesZeroXorOnUniform) {
  const auto proto = core::make_protocol("flawed-pi-g-mpc");
  const auto spec = mpc_spec(*proto);
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 600, kSeed).samples;
  EXPECT_DOUBLE_EQ(consistency_rate(samples), 1.0);
  for (const Sample& s : samples) EXPECT_FALSE(s.announced.parity());
}

TEST(MpcBackend, GIndependentUnderAttack) {
  const auto proto = core::make_protocol("flawed-pi-g-mpc");
  const auto spec = mpc_spec(*proto);
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 2500, kSeed).samples;
  const GVerdict v = test_g(samples, spec.corrupted);
  EXPECT_TRUE(v.independent) << core::describe(v);
}

TEST(MpcBackend, CrViolatedUnderAttackWithQuarterGap) {
  const auto proto = core::make_protocol("flawed-pi-g-mpc");
  const auto spec = mpc_spec(*proto);
  const auto ens = dist::make_uniform(5);
  const auto samples = exec::Runner().run_batch(spec, *ens, 2500, kSeed).samples;
  const CrVerdict v = test_cr(samples, spec.corrupted);
  EXPECT_FALSE(v.independent);
  EXPECT_NEAR(v.max_gap, 0.25, 0.05);
  EXPECT_EQ(v.worst.predicate, "parity==0");
}

TEST(MpcBackend, VerdictsMatchIdealBackend) {
  // Same adversary intent, same distribution, both backends: identical
  // qualitative verdicts and quantitatively close CR gaps.
  const auto ideal = core::make_protocol("flawed-pi-g");
  RunSpec ideal_spec;
  ideal_spec.protocol = ideal.get();
  ideal_spec.params.n = 5;
  ideal_spec.corrupted = {1, 3};
  ideal_spec.adversary = adversary::parity_factory();

  const auto mpc = core::make_protocol("flawed-pi-g-mpc");
  const auto m_spec = mpc_spec(*mpc);

  const auto ens = dist::make_uniform(5);
  const auto ideal_samples = exec::Runner().run_batch(ideal_spec, *ens, 2500, kSeed).samples;
  const auto mpc_samples = exec::Runner().run_batch(m_spec, *ens, 2500, kSeed + 1).samples;

  const CrVerdict cr_ideal = test_cr(ideal_samples, ideal_spec.corrupted);
  const CrVerdict cr_mpc = test_cr(mpc_samples, m_spec.corrupted);
  EXPECT_EQ(cr_ideal.independent, cr_mpc.independent);
  EXPECT_NEAR(cr_ideal.max_gap, cr_mpc.max_gap, 0.05);

  const GVerdict g_ideal = test_g(ideal_samples, ideal_spec.corrupted);
  const GVerdict g_mpc = test_g(mpc_samples, m_spec.corrupted);
  EXPECT_EQ(g_ideal.independent, g_mpc.independent);
}

TEST(MpcBackend, HonestDistributionsMatchAcrossBackends) {
  // All-honest announced distributions must be identical (both equal the
  // input distribution).
  for (const char* name : {"flawed-pi-g", "flawed-pi-g-mpc"}) {
    const auto proto = core::make_protocol(name);
    RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.adversary = adversary::silent_factory();
    const auto ens = dist::make_uniform(4);
    const auto samples = exec::Runner().run_batch(spec, *ens, 400, kSeed + 2).samples;
    for (const Sample& s : samples) EXPECT_EQ(s.announced, s.inputs) << name;
  }
}

}  // namespace
}  // namespace simulcast::testers
