#include "core/multi.h"

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::core {

ValueBroadcast::ValueBroadcast(std::string protocol, std::size_t n, std::size_t value_bits)
    : session_(std::move(protocol), n), n_(n), value_bits_(value_bits) {
  if (value_bits == 0 || value_bits > 63)
    throw UsageError("ValueBroadcast: value_bits out of [1, 63]");
}

ValueBroadcastResult ValueBroadcast::run(const std::vector<std::uint64_t>& values,
                                         std::uint64_t seed) const {
  return run_with_adversary(values, {}, adversary::silent_factory(), seed);
}

ValueBroadcastResult ValueBroadcast::run_with_adversary(
    const std::vector<std::uint64_t>& values, const std::vector<sim::PartyId>& corrupted,
    const adversary::AdversaryFactory& adversary, std::uint64_t seed) const {
  if (values.size() != n_) throw UsageError("ValueBroadcast: values.size() != n");
  const std::uint64_t mask =
      value_bits_ == 63 ? (std::uint64_t{1} << 63) - 1 : (std::uint64_t{1} << value_bits_) - 1;
  for (std::uint64_t v : values)
    if ((v & ~mask) != 0) throw UsageError("ValueBroadcast: value exceeds value_bits");

  // The per-bit sessions are mutually independent (fresh adversary, seed
  // forked per bit), so they ride the exec engine as one prepared batch;
  // folding in MSB-first bit order below keeps the composed values and the
  // seed derivation identical to the historical serial chaining.
  const stats::Rng master(seed);
  std::vector<BitVec> bit_inputs;
  bit_inputs.reserve(value_bits_);
  std::vector<std::uint64_t> bit_seeds(value_bits_);
  for (std::size_t bit = 0; bit < value_bits_; ++bit) {
    const std::size_t shift = value_bits_ - 1 - bit;  // MSB first
    BitVec inputs(n_);
    for (std::size_t p = 0; p < n_; ++p) inputs.set(p, ((values[p] >> shift) & 1u) != 0);
    bit_inputs.push_back(std::move(inputs));
    bit_seeds[bit] = master.fork("bit", bit)();
  }
  const std::vector<SessionResult> sessions =
      session_.run_batch_seeded(bit_inputs, bit_seeds, corrupted, adversary);

  ValueBroadcastResult result;
  result.announced.assign(n_, 0);
  result.consistent = true;
  result.correct = true;
  for (const SessionResult& session_result : sessions) {
    result.consistent = result.consistent && session_result.consistent;
    result.correct = result.correct && session_result.correct;
    result.total_rounds += session_result.rounds;
    result.total_messages += session_result.messages();
    for (std::size_t p = 0; p < n_; ++p)
      result.announced[p] =
          (result.announced[p] << 1) | (session_result.announced.get(p) ? 1u : 0u);
  }
  return result;
}

}  // namespace simulcast::core
