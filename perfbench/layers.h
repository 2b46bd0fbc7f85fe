// Self-time accounting for the benchmark's traced run.
//
// The benchmark times the program from outside: it wraps the protocol,
// party, adversary, functionality and ensemble interfaces in decorators
// (perfbench.cpp) and opens a span around every call into them.  A
// *region* is one call from the benchmark's main thread into the engine
// (a Runner batch, a tester call).  Spans opened on the thread holding the
// region are its descendants; a span's self time is its duration minus the
// time its child spans cover.
//
// The Runner runs repetitions on a pool of T worker threads.  Spans on a
// pool thread have no parent on that thread, and their durations are
// thread-seconds, not wall seconds.  At the end of the region they are
// folded into it as wall-equivalent seconds: pooled self time divided by T.
// The region's own layer keeps the rest of its wall time (including pool
// threads idling at the end of a batch), so per region
//     region self + sum over layers of (direct + pooled / T) = region wall time
// holds exactly, and the layers plus the benchmark's own residual add up
// to the wall time of the whole campaign.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

enum class Layer : std::size_t { kSim, kParty, kAdversary, kFunctionality, kEval, kSample };
inline constexpr std::size_t kLayers = 6;

/// Metric names of the layers, indexed by Layer.
inline constexpr std::array<const char*, kLayers> kLayerMetric = {
    "sim.self_s",    "protocols.party_s", "adversary.self_s", "protocols.functionality_s",
    "testers.eval_s", "dist.sample_s"};

class LayerClock {
 public:
  /// Opens the region (a call from the benchmark into the engine) on the
  /// calling thread.  Regions do not nest.
  void open_region(Layer layer, std::int64_t now_ns) {
    stack_.push_back({layer, now_ns, 0, false});
  }

  /// Closes the region open on this thread.  `threads` is the width of the
  /// worker pool the region ran repetitions on (1 = inline on this thread).
  void close_region(std::int64_t now_ns, std::size_t threads) {
    const Open region = stack_.back();
    stack_.pop_back();
    const double width = static_cast<double>(threads < 1 ? 1 : threads);
    const double pooled_roots = static_cast<double>(pooled_roots_.exchange(0));
    total_ns_[index(region.layer)] +=
        static_cast<double>(now_ns - region.start - region.children) - pooled_roots / width;
    for (std::size_t l = 0; l < kLayers; ++l) {
      total_ns_[l] += static_cast<double>(direct_[l].exchange(0)) +
                      static_cast<double>(pooled_[l].exchange(0)) / width;
    }
  }

  /// Opens a span on the calling thread: a child of the innermost open span,
  /// or a pool root when the thread has none.
  void open(Layer layer, std::int64_t now_ns) {
    const bool pooled = stack_.empty() || stack_.back().pooled;
    stack_.push_back({layer, now_ns, 0, pooled});
  }

  /// Closes the innermost span opened on the calling thread.
  void close(std::int64_t now_ns) {
    const Open span = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now_ns - span.start;
    (span.pooled ? pooled_ : direct_)[index(span.layer)] += duration - span.children;
    if (!stack_.empty()) {
      stack_.back().children += duration;
    } else {
      pooled_roots_ += duration;
    }
  }

  /// Wall-equivalent self seconds per layer over every closed region.
  [[nodiscard]] std::array<double, kLayers> seconds() const {
    std::array<double, kLayers> out{};
    for (std::size_t l = 0; l < kLayers; ++l) out[l] = total_ns_[l] * 1e-9;
    return out;
  }

  void reset() { total_ns_ = {}; }

 private:
  struct Open {
    Layer layer;
    std::int64_t start;
    std::int64_t children;  ///< summed durations of closed child spans
    bool pooled;            ///< in a pool thread's tree, not under a region
  };

  static std::size_t index(Layer layer) { return static_cast<std::size_t>(layer); }

  static inline thread_local std::vector<Open> stack_;
  std::array<std::atomic<std::int64_t>, kLayers> direct_{};
  std::array<std::atomic<std::int64_t>, kLayers> pooled_{};
  std::atomic<std::int64_t> pooled_roots_{0};
  std::array<double, kLayers> total_ns_{};
};

/// The benchmark's own residual: campaign wall time not covered by any
/// layer (building specs, digests, verdict checks).
[[nodiscard]] inline double other_seconds(double campaign_s,
                                          const std::array<double, kLayers>& layers) {
  double covered = 0.0;
  for (const double s : layers) covered += s;
  return campaign_s - covered;
}

}  // namespace perfbench
