// Self-test of the benchmark's span arithmetic (layers.h) on synthetic span
// trees with made-up timestamps: self time equals span minus children, pool
// threads fold in divided by the pool width, and the layers plus the
// residual equal the whole.  run.py runs it before every measurement.
#include <cmath>
#include <cstdio>
#include <thread>

#include "layers.h"

namespace {

using perfbench::Layer;
using perfbench::LayerClock;

int g_failures = 0;

void expect(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12) {
    std::fprintf(stderr, "selftest FAILED: %s = %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

double at(const std::array<double, perfbench::kLayers>& s, Layer layer) {
  return s[static_cast<std::size_t>(layer)];
}

double sum(const std::array<double, perfbench::kLayers>& s) {
  double total = 0.0;
  for (const double v : s) total += v;
  return total;
}

// A region on this thread with nested children (times in ns):
//   sim [0,1000]: sample [0,100], party [100,400] { functionality [150,250] },
//                 adversary [500,600] { party [520,540] }
void nested_on_one_thread() {
  LayerClock clock;
  clock.open_region(Layer::kSim, 0);
  clock.open(Layer::kSample, 0);
  clock.close(100);
  clock.open(Layer::kParty, 100);
  clock.open(Layer::kFunctionality, 150);
  clock.close(250);
  clock.close(400);
  clock.open(Layer::kAdversary, 500);
  clock.open(Layer::kParty, 520);
  clock.close(540);
  clock.close(600);
  clock.close_region(1000, 1);
  const auto s = clock.seconds();
  expect("nested sample", at(s, Layer::kSample), 100e-9);
  expect("nested party", at(s, Layer::kParty), 220e-9);
  expect("nested functionality", at(s, Layer::kFunctionality), 100e-9);
  expect("nested adversary", at(s, Layer::kAdversary), 80e-9);
  expect("nested sim self", at(s, Layer::kSim), 500e-9);
  expect("nested layers sum to the region", sum(s), 1000e-9);
}

// A region whose repetitions ran on two pool threads:
//   main:     sim [0,1000] { sample [0,200] }
//   worker A: party [200,900] { adversary [300,500] }
//   worker B: party [200,700]
// Pooled self times are thread-seconds, folded in divided by the width 2.
void pooled_on_two_threads() {
  LayerClock clock;
  clock.open_region(Layer::kSim, 0);
  clock.open(Layer::kSample, 0);
  clock.close(200);
  std::thread a([&] {
    clock.open(Layer::kParty, 200);
    clock.open(Layer::kAdversary, 300);
    clock.close(500);
    clock.close(900);
  });
  std::thread b([&] {
    clock.open(Layer::kParty, 200);
    clock.close(700);
  });
  a.join();
  b.join();
  clock.close_region(1000, 2);
  const auto s = clock.seconds();
  expect("pooled sample", at(s, Layer::kSample), 200e-9);
  expect("pooled party", at(s, Layer::kParty), (500.0 + 500.0) / 2 * 1e-9);
  expect("pooled adversary", at(s, Layer::kAdversary), 200.0 / 2 * 1e-9);
  expect("pooled sim self", at(s, Layer::kSim), (1000.0 - 200.0 - 1200.0 / 2) * 1e-9);
  expect("pooled layers sum to the region", sum(s), 1000e-9);
}

// Two regions of different layers in one campaign, then the residual: the
// layers plus other_s equal the campaign's wall time.
void regions_and_residual() {
  LayerClock clock;
  clock.open_region(Layer::kSim, 0);
  clock.open(Layer::kParty, 10);
  clock.close(60);
  clock.close_region(100, 1);
  clock.open_region(Layer::kEval, 150);
  clock.close_region(175, 1);
  const auto s = clock.seconds();
  expect("second region keeps its own layer", at(s, Layer::kEval), 25e-9);
  expect("first region self", at(s, Layer::kSim), 50e-9);
  const double campaign_s = 200e-9;
  const double other = perfbench::other_seconds(campaign_s, s);
  expect("residual", other, 75e-9);
  expect("layers plus residual equal the whole", sum(s) + other, campaign_s);
  clock.reset();
  expect("reset clears the totals", sum(clock.seconds()), 0.0);
}

}  // namespace

int main() {
  nested_on_one_thread();
  pooled_on_two_threads();
  regions_and_residual();
  if (g_failures != 0) return 1;
  std::puts("perfbench selftest: ok");
  return 0;
}
