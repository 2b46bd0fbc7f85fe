// High-level facade: "n parties simultaneously broadcast their bits".
//
// This is the 10-line entry point the examples build on.  It hides the
// scheduler, the adversary plumbing and the announced-vector extraction;
// callers pick a protocol, optionally a corruption set with an adversary,
// and get back the announced vector W with its consistency/correctness
// status.
#pragma once

#include <memory>
#include <string>

#include "adversary/adversaries.h"
#include "base/bitvec.h"
#include "exec/runner.h"
#include "sim/protocol.h"

namespace simulcast::core {

struct SessionResult {
  BitVec announced;        ///< W (Definition 3.1)
  bool consistent = false; ///< honest outputs agreed
  bool correct = false;    ///< honest coordinates match honest inputs
  std::size_t rounds = 0;
  /// Full execution accounting — the same sim::TrafficStats the batch path
  /// aggregates, so serial and batch runs of one seed report identically.
  sim::TrafficStats traffic;

  [[nodiscard]] std::size_t messages() const { return traffic.messages; }
  [[nodiscard]] std::size_t wire_bytes() const { return traffic.wire_bytes; }
};

class Session {
 public:
  /// `protocol` is a registry name (core/registry.h).
  Session(std::string protocol, std::size_t n);
  ~Session();
  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;

  /// Number of rounds this session's protocol needs.
  [[nodiscard]] std::size_t rounds() const;

  /// Largest corruption count the protocol tolerates.
  [[nodiscard]] std::size_t max_corruptions() const;

  /// Runs with every party honest.
  [[nodiscard]] SessionResult run(const BitVec& inputs, std::uint64_t seed) const;

  /// Runs with the given corrupted set driven by the adversary factory.
  [[nodiscard]] SessionResult run_with_adversary(
      const BitVec& inputs, const std::vector<sim::PartyId>& corrupted,
      const adversary::AdversaryFactory& adversary, std::uint64_t seed) const;

  /// Repetition sweep: one session per input vector, session i with seed
  /// seeds[i] as given (how ValueBroadcast's per-bit sessions and the
  /// election example keep their historical seed derivations), sharded
  /// across `threads` workers (0 = exec::default_threads()).  Results are
  /// ordered and bit-identical for every thread count.
  [[nodiscard]] std::vector<SessionResult> run_batch_seeded(
      const std::vector<BitVec>& inputs, const std::vector<std::uint64_t>& seeds,
      const std::vector<sim::PartyId>& corrupted, const adversary::AdversaryFactory& adversary,
      std::size_t threads = 0) const;

  /// Fault plan applied to every execution this session runs, serial or
  /// batch (sim/faults.h).  An empty plan (the default) falls back to the
  /// process-wide exec::default_fault_plan().
  void set_fault_plan(sim::FaultPlan plan) { faults_ = std::move(plan); }
  [[nodiscard]] const sim::FaultPlan& fault_plan() const { return faults_; }

  [[nodiscard]] const sim::ParallelBroadcastProtocol& protocol() const { return *protocol_; }
  [[nodiscard]] const sim::ProtocolParams& params() const { return params_; }

 private:
  std::unique_ptr<sim::ParallelBroadcastProtocol> protocol_;
  sim::ProtocolParams params_;
  sim::FaultPlan faults_;
};

}  // namespace simulcast::core
