// Per-execution payload pool.
//
// Message payloads are the allocator hot spot of the simulator: every send
// used to construct a fresh Bytes, every delivery deep-copied it, and both
// died at the end of the round.  The scheduler now owns one MessagePool per
// execution and closes the loop: parties build payloads in buffers acquired
// from the pool (PartyContext::writer()), the slot mailboxes move them to the
// next round without copying, and once a round's deliveries have been
// consumed the scheduler releases the buffers back to the pool.  After the
// first couple of rounds the free list covers the working set and the
// steady state allocates nothing.
//
// The pool is deliberately per-execution and single-threaded: executions
// are the unit of parallelism (exec::Runner shards repetitions, never one
// execution), so the pool needs no locks, and its counters are a pure
// function of the execution's traffic — summed across any thread count
// they land on the same sim.alloc.* totals, which is what lets the
// allocation-accounting regression test pin them.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "base/bytes.h"

namespace simulcast::sim {

/// Recycles payload buffers within one execution.  acquire() hands out an
/// empty Bytes that keeps the capacity of a previously released buffer
/// whenever one is available, and grows the pool with a fresh allocation
/// when the free list is exhausted.
class MessagePool {
 public:
  /// Counters for the sim.alloc.* metrics; deterministic per execution.
  struct Stats {
    std::uint64_t acquired = 0;  ///< buffers handed out
    std::uint64_t reused = 0;    ///< ... of which came from the free list
    std::uint64_t released = 0;  ///< buffers returned
  };

  [[nodiscard]] Bytes acquire() {
    ++stats_.acquired;
    if (free_.empty()) return Bytes{};
    ++stats_.reused;
    Bytes buf = std::move(free_.back());
    free_.pop_back();
    return buf;
  }

  /// Returns a buffer to the free list; contents are cleared, capacity is
  /// kept.  Moved-from and never-pooled buffers are welcome too — the pool
  /// only grows.
  void release(Bytes&& buf) {
    ++stats_.released;
    buf.clear();
    free_.push_back(std::move(buf));
  }

  /// Drops every pooled buffer and zeroes the counters (reuse-after-reset
  /// starts a fresh accounting window).
  void reset() {
    free_.clear();
    stats_ = Stats{};
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t free_count() const noexcept { return free_.size(); }

 private:
  std::vector<Bytes> free_;
  Stats stats_;
};

}  // namespace simulcast::sim
