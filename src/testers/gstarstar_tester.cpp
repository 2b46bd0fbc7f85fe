#include "testers/gstarstar_tester.h"

#include <cmath>

#include "base/error.h"
#include "stats/confidence.h"

namespace simulcast::testers {

GssVerdict test_gstarstar(const RunSpec& spec, const GssOptions& options, std::uint64_t seed) {
  if (spec.protocol == nullptr) throw UsageError("test_gstarstar: null protocol");
  if (spec.corrupted.empty()) throw UsageError("test_gstarstar: no corrupted party");
  const std::size_t n = spec.params.n;
  const std::vector<std::size_t> honest = honest_indices(n, spec.corrupted);
  if (honest.empty()) throw UsageError("test_gstarstar: no honest parties");
  if (honest.size() > 12) throw UsageError("test_gstarstar: too many honest inputs to enumerate");

  std::vector<BitVec> w_list = options.corrupted_inputs;
  if (w_list.empty()) {
    w_list.emplace_back(spec.corrupted.size());
    BitVec ones(spec.corrupted.size());
    for (std::size_t j = 0; j < ones.size(); ++j) ones.set(j, true);
    w_list.push_back(ones);
  }

  GssVerdict verdict;
  const std::size_t honest_count = std::size_t{1} << honest.size();
  const double tests =
      static_cast<double>(w_list.size() * spec.corrupted.size()) *
      static_cast<double>(honest_count * honest_count);
  verdict.radius = stats::hoeffding_diff_radius(options.samples_per_input,
                                                options.samples_per_input,
                                                options.alpha / std::max(1.0, tests));

  stats::Rng master(seed);
  const exec::Runner runner;
  for (std::size_t wi = 0; wi < w_list.size(); ++wi) {
    const BitVec& w = w_list[wi];
    if (w.size() != spec.corrupted.size())
      throw UsageError("test_gstarstar: corrupted-input width mismatch");
    // Estimate Pr[W_i = 1] for every fixed honest-input vector.
    // p_one[h][i-index] = fraction of executions with W_{corrupted[i]} = 1.
    std::vector<std::vector<double>> p_one(honest_count,
                                           std::vector<double>(spec.corrupted.size(), 0.0));
    for (std::size_t h = 0; h < honest_count; ++h) {
      const BitVec honest_vec(honest.size(), h);
      const BitVec input = BitVec::splice(n, spec.corrupted, w, honest_vec);
      const std::uint64_t batch_seed = master.fork("gss", wi * honest_count + h)();
      const std::vector<Sample> samples =
          runner.run_batch(spec, input, options.samples_per_input, batch_seed).samples;
      const exec::EvaluationPhase evaluation;
      verdict.executions += samples.size();
      for (const Sample& s : samples)
        for (std::size_t ci = 0; ci < spec.corrupted.size(); ++ci)
          if (s.announced.get(spec.corrupted[ci])) p_one[h][ci] += 1.0;
      for (std::size_t ci = 0; ci < spec.corrupted.size(); ++ci)
        p_one[h][ci] /= static_cast<double>(samples.size());
    }
    const exec::EvaluationPhase evaluation;
    for (std::size_t ci = 0; ci < spec.corrupted.size(); ++ci) {
      for (std::size_t a = 0; a < honest_count; ++a) {
        for (std::size_t b = a + 1; b < honest_count; ++b) {
          const double gap = std::abs(p_one[a][ci] - p_one[b][ci]);
          if (gap > verdict.max_gap) {
            verdict.max_gap = gap;
            verdict.worst = {spec.corrupted[ci], w, BitVec(honest.size(), a),
                             BitVec(honest.size(), b), gap};
          }
        }
      }
    }
  }
  verdict.independent = verdict.max_gap <= verdict.radius + options.margin;
  return verdict;
}

}  // namespace simulcast::testers
