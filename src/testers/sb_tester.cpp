#include "testers/sb_tester.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <string_view>

#include "base/error.h"
#include "stats/confidence.h"
#include "stats/empirical.h"

namespace simulcast::testers {

namespace {

/// Packs (x, W) into a 2n-bit vector for joint-histogram comparison.
BitVec pack_pair(const BitVec& x, const BitVec& w) {
  BitVec out(x.size() + w.size());
  for (std::size_t i = 0; i < x.size(); ++i) out.set(i, x.get(i));
  for (std::size_t i = 0; i < w.size(); ++i) out.set(x.size() + i, w.get(i));
  return out;
}

/// The concatenation of `parts`.  Distinguisher names are built with it
/// because GCC 12 at -O3 reports a false -Wrestrict on a
/// `"W" + std::to_string(i) + ...` chain.
std::string concat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (const std::string_view part : parts) out.append(part);
  return out;
}

}  // namespace

std::vector<SbDistinguisher> default_sb_distinguishers(
    std::size_t n, const std::vector<sim::PartyId>& corrupted) {
  std::vector<SbDistinguisher> lib;
  const std::vector<std::size_t> honest = honest_indices(n, corrupted);
  // Copy detectors: corrupted announced value equals an honest input.
  for (std::size_t c : corrupted) {
    for (std::size_t j : honest) {
      lib.push_back({concat({"W", std::to_string(c), "==x", std::to_string(j)}),
                     [c, j](const BitVec& x, const BitVec& w) { return w.get(c) == x.get(j); }});
    }
  }
  // Parity rigging.
  lib.push_back({"parity(W)==0", [](const BitVec&, const BitVec& w) { return !w.parity(); }});
  // Corrupted coordinates themselves.
  for (std::size_t c : corrupted)
    lib.push_back({concat({"W", std::to_string(c), "==1"}),
                   [c](const BitVec&, const BitVec& w) { return w.get(c); }});
  // Honest correctness (should hold in both worlds; catches simulator bugs).
  for (std::size_t j : honest)
    lib.push_back({concat({"W", std::to_string(j), "==x", std::to_string(j)}),
                   [j](const BitVec& x, const BitVec& w) { return w.get(j) == x.get(j); }});
  return lib;
}

SbVerdict test_sb(const RunSpec& spec, const dist::InputEnsemble& ensemble,
                  const SbOptions& options, std::uint64_t seed) {
  if (spec.protocol == nullptr) throw UsageError("test_sb: null protocol");
  const std::size_t n = spec.params.n;
  const std::vector<std::size_t> honest = honest_indices(n, spec.corrupted);

  stats::Rng master(seed);
  stats::Rng input_rng = master.fork("sb-inputs");

  // Inputs and per-repetition seeds are derived serially; each world then
  // runs as one engine batch with repetition-indexed slots, so the verdict
  // is bit-identical for every thread count.  Repetition rep executes with
  // Rng(master.fork("sb-real", rep)()).fork("exec-fixed", 0)() (resp.
  // "sb-ideal"): the Sb seed stream every pinned verdict and committed
  // baseline was measured with (DESIGN.md section 6).
  const auto exec_seed = [](std::uint64_t batch_seed) {
    return stats::Rng(batch_seed).fork("exec-fixed", 0)();
  };
  std::vector<BitVec> xs;
  std::vector<BitVec> dummies;
  xs.reserve(options.samples);
  dummies.reserve(options.samples);
  std::vector<std::uint64_t> real_seeds(options.samples);
  std::vector<std::uint64_t> ideal_seeds(options.samples);
  for (std::size_t rep = 0; rep < options.samples; ++rep) {
    xs.push_back(ensemble.sample(input_rng));
    // The dummy-input simulator's sandbox: honest inputs pinned to 0.
    dummies.push_back(xs.back());
    for (std::size_t j : honest) dummies.back().set(j, false);
    real_seeds[rep] = exec_seed(master.fork("sb-real", rep)());
    ideal_seeds[rep] = exec_seed(master.fork("sb-ideal", rep)());
  }
  const exec::Runner runner;
  const exec::BatchResult real = runner.run_batch(spec, xs, real_seeds);
  const exec::BatchResult sandbox = runner.run_batch(spec, dummies, ideal_seeds);

  const exec::EvaluationPhase evaluation;
  // Ideal world: f_SB hands honest inputs through verbatim and takes the
  // corrupted announced values the sandboxed adversary produced.
  std::vector<BitVec> ideal_w = xs;
  stats::EmpiricalDist real_joint(2 * n);
  stats::EmpiricalDist ideal_joint(2 * n);
  for (std::size_t rep = 0; rep < options.samples; ++rep) {
    for (std::size_t c : spec.corrupted) ideal_w[rep].set(c, sandbox.samples[rep].announced.get(c));
    real_joint.add(pack_pair(xs[rep], real.samples[rep].announced));
    ideal_joint.add(pack_pair(xs[rep], ideal_w[rep]));
  }

  SbVerdict verdict;
  verdict.samples = options.samples;
  verdict.tv_joint = real_joint.tv_distance(ideal_joint);

  const std::vector<SbDistinguisher> lib = default_sb_distinguishers(n, spec.corrupted);
  const double alpha_each = options.alpha / std::max<double>(1.0, static_cast<double>(lib.size()));
  verdict.radius = stats::hoeffding_diff_radius(options.samples, options.samples, alpha_each);
  for (const SbDistinguisher& d : lib) {
    double p_real = 0.0;
    double p_ideal = 0.0;
    for (std::size_t rep = 0; rep < options.samples; ++rep) {
      p_real += d.eval(xs[rep], real.samples[rep].announced) ? 1.0 : 0.0;
      p_ideal += d.eval(xs[rep], ideal_w[rep]) ? 1.0 : 0.0;
    }
    p_real /= static_cast<double>(options.samples);
    p_ideal /= static_cast<double>(options.samples);
    const double gap = std::abs(p_real - p_ideal);
    if (gap > verdict.max_distinguisher_gap) {
      verdict.max_distinguisher_gap = gap;
      verdict.worst = {d.name, p_real, p_ideal};
    }
  }
  verdict.secure = verdict.max_distinguisher_gap <= verdict.radius + options.margin;
  return verdict;
}

}  // namespace simulcast::testers
