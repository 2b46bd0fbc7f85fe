#include "core/session.h"

#include "broadcast/parallel_broadcast.h"
#include "core/registry.h"

namespace simulcast::core {

Session::Session(std::string protocol, std::size_t n) : protocol_(make_protocol(protocol)) {
  params_.n = n;
}

Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

std::size_t Session::rounds() const {
  return protocol_->rounds(params_.n);
}

std::size_t Session::max_corruptions() const {
  return protocol_->max_corruptions(params_.n);
}

SessionResult Session::run(const BitVec& inputs, std::uint64_t seed) const {
  return run_with_adversary(inputs, {}, adversary::silent_factory(), seed);
}

SessionResult Session::run_with_adversary(const BitVec& inputs,
                                          const std::vector<sim::PartyId>& corrupted,
                                          const adversary::AdversaryFactory& adversary,
                                          std::uint64_t seed) const {
  // A batch of one: the prepared overload runs `seed` as given, so this is
  // exactly the execution sim::run_execution computes for that seed.
  return std::move(run_batch_seeded({inputs}, {seed}, corrupted, adversary).front());
}

std::vector<SessionResult> Session::run_batch_seeded(const std::vector<BitVec>& inputs,
                                                     const std::vector<std::uint64_t>& seeds,
                                                     const std::vector<sim::PartyId>& corrupted,
                                                     const adversary::AdversaryFactory& adversary,
                                                     std::size_t threads) const {
  exec::RunSpec spec;
  spec.protocol = protocol_.get();
  spec.params = params_;
  spec.corrupted = corrupted;
  spec.adversary = adversary;
  spec.faults = faults_;

  const exec::BatchResult batch = exec::Runner(threads).run_batch(spec, inputs, seeds);

  std::vector<SessionResult> out;
  out.reserve(batch.samples.size());
  for (std::size_t i = 0; i < batch.samples.size(); ++i) {
    const exec::Sample& s = batch.samples[i];
    SessionResult r;
    r.announced = s.announced;
    r.consistent = s.consistent;
    // correct_for_honest short-circuits on inconsistency, so rebuilding the
    // Announced view from the (possibly zeroed) sample vector is exact.
    r.correct = broadcast::correct_for_honest({s.announced, s.consistent}, inputs[i], corrupted);
    r.rounds = s.rounds;
    r.traffic = s.traffic;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace simulcast::core
