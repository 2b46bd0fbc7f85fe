// Sb-independence tester (Definitions 4.1/4.2, the simulation-based notion
// of Chor-Goldwasser-Micali-Awerbuch cast into Canetti's framework).
//
// The definition asks for a simulator S such that real executions and
// ideal executions of f_SB(x) = (x, ..., x) are indistinguishable.  The
// tester instantiates the *canonical black-box dummy-input simulator*: run
// the adversary inside a sandboxed execution in which every honest party
// inputs 0, read off the corrupted parties' announced values, and submit
// those to the ideal functionality.  The ideal announced vector is then
//     W_ideal = x_honest ⊔ Ŵ_B(sandbox).
// If the protocol is independent, corrupted announced values cannot depend
// on honest inputs, so the sandbox values are distributed like the real
// ones and the two ensembles match; if a corrupted announced value does
// depend on honest inputs (copying, selective abort, parity rigging), the
// joint (x, W) distributions diverge and the tester reports the gap.
//
// Caveat stated plainly: a reported PASS certifies only that this canonical
// simulator works against the tested distinguishers - the right direction
// for every experiment in this repo, where Sb violations are what we hunt.
// The distinguisher library contains the copy detector used in Prop. 6.3,
// parity checks, and per-coordinate input/output matchers; the headline
// number is the total-variation distance between the empirical joint
// (x, W) distributions, the strongest statistic at this scale.
#pragma once

#include "dist/ensembles.h"
#include "testers/monte_carlo.h"

namespace simulcast::testers {

/// A distinguisher over the pair (inputs x, announced W).
struct SbDistinguisher {
  std::string name;
  std::function<bool(const BitVec& x, const BitVec& w)> eval;
};

[[nodiscard]] std::vector<SbDistinguisher> default_sb_distinguishers(
    std::size_t n, const std::vector<sim::PartyId>& corrupted);

struct SbFinding {
  std::string distinguisher;
  double p_real = 0.0;
  double p_ideal = 0.0;
};

struct SbVerdict {
  bool secure = true;
  double tv_joint = 0.0;          ///< TV distance of empirical joint (x, W)
  double max_distinguisher_gap = 0.0;
  double radius = 0.0;
  SbFinding worst;
  std::size_t samples = 0;
};

struct SbOptions {
  std::size_t samples = 2000;
  double alpha = 0.01;
  double margin = 0.05;  ///< max distinguisher gap must clear radius + margin
};

/// Runs real and simulated ensembles over `ensemble` and compares them:
/// 2 x options.samples executions, as two exec::Runner batches (one per
/// world) at the default pool width.
[[nodiscard]] SbVerdict test_sb(const RunSpec& spec, const dist::InputEnsemble& ensemble,
                                const SbOptions& options, std::uint64_t seed);

}  // namespace simulcast::testers
