#include "protocols/vss_core.h"

#include <algorithm>

#include "base/error.h"

namespace simulcast::protocols {

namespace {

Bytes encode_justify(sim::PartyId complainer, const crypto::PedersenShare& share) {
  ByteWriter w;
  w.u64(complainer);
  w.bytes(crypto::encode_pedersen_share(share));
  return w.take();
}

Bytes encode_reveal(sim::PartyId dealer, const crypto::PedersenShare& share) {
  ByteWriter w;
  w.u64(dealer);
  w.bytes(crypto::encode_pedersen_share(share));
  return w.take();
}

}  // namespace

void VssSchedule::validate() const {
  if (n == 0 || n > kMaxBits) throw UsageError("VssSchedule: bad n");
  if (threshold >= (n + 1) / 2) throw UsageError("VssSchedule: threshold must satisfy t < n/2");
  if (deal_round.size() != n) throw UsageError("VssSchedule: deal_round size != n");
  for (sim::Round r : deal_round)
    if (r >= complaint_round) throw UsageError("VssSchedule: deal after complaint round");
  if (pok.has_value()) {
    if (pok->size() != n) throw UsageError("VssSchedule: pok size != n");
    for (std::size_t d = 0; d < n; ++d) {
      const PokRounds& p = (*pok)[d];
      if (p.commit <= deal_round[d] || p.challenge != p.commit + 1 ||
          p.response != p.challenge + 1 || p.response >= complaint_round)
        throw UsageError("VssSchedule: malformed pok rounds");
    }
  }
  if (!(complaint_round < justify_round && justify_round < reconstruct_round &&
        reconstruct_round < total_rounds))
    throw UsageError("VssSchedule: phases out of order");
}

VssProtocolParty::VssProtocolParty(VssSchedule schedule, bool input)
    : schedule_(std::move(schedule)), input_(input), group_(&crypto::SchnorrGroup::standard()) {
  schedule_.validate();
}

void VssProtocolParty::begin(sim::PartyContext& ctx) {
  me_ = ctx.id();
  dealers_.assign(schedule_.n, DealerState{});
  result_ = BitVec(schedule_.n);
}

void VssProtocolParty::deal(sim::PartyContext& ctx) {
  const crypto::Zq secret{input_ ? std::uint64_t{1} : std::uint64_t{0}, group_->q()};
  my_deal_ = vss_.deal(secret, schedule_.threshold, schedule_.n, ctx.drbg());
  my_secret_ = secret;
  // The blinding constant term f'(0) is recoverable from the blinding
  // polynomial; PedersenVss does not expose it, so recompute it from the
  // dealt shares via Lagrange on the blinding coordinates.
  std::vector<crypto::Share<crypto::Zq>> blind_shares;
  blind_shares.reserve(schedule_.threshold + 1);
  for (std::size_t i = 0; i <= schedule_.threshold; ++i)
    blind_shares.push_back({my_deal_->shares[i].x, my_deal_->shares[i].blinding});
  my_secret_blinding_ = crypto::shamir_reconstruct(blind_shares);

  ctx.broadcast(kVssCommitTag, crypto::encode_group_elements(my_deal_->commitments));
  for (std::size_t j = 0; j < schedule_.n; ++j) {
    if (j == me_) continue;
    ctx.send(j, kVssShareTag, crypto::encode_pedersen_share(my_deal_->shares[j]));
  }
  // My own share and commitments, recorded directly.
  DealerState& self = dealers_[me_];
  self.commitments = my_deal_->commitments;
  self.my_share = my_deal_->shares[me_];
  self.my_share_verifies.reset();
}

void VssProtocolParty::add_public_share(DealerState& state, const crypto::PedersenShare& share) {
  if (!state.commitments.has_value()) return;
  if (!vss_.verify_share(*state.commitments, share)) return;
  if (!state.public_share_points.insert(share.x).second) return;
  state.public_shares.push_back(share);
}

bool VssProtocolParty::my_share_verifies(DealerState& state) {
  if (!state.commitments.has_value() || !state.my_share.has_value()) return false;
  if (!state.my_share_verifies.has_value())
    state.my_share_verifies = vss_.verify_share(*state.commitments, *state.my_share);
  return *state.my_share_verifies;
}

void VssProtocolParty::record(const sim::Inbox& inbox, sim::PartyContext& ctx) {
  for (const sim::Message& m : inbox) {
    try {
      // Channel binding: every tag except the private share transfer is a
      // broadcast-channel message.  Accepting a point-to-point copy of a
      // "broadcast" would let the adversary equivocate - show different
      // commitments/complaints/reveals to different parties - and break
      // consistency (found by the fuzzing suite).
      if (m.tag != kVssShareTag && m.to != sim::kBroadcast) continue;
      if (m.tag == kVssCommitTag) {
        if (m.from >= schedule_.n || m.round != schedule_.deal_round[m.from]) continue;
        DealerState& dealer = dealers_[m.from];
        if (dealer.commitments.has_value()) continue;  // first wins
        auto elems = crypto::decode_group_elements(m.payload);
        if (!vss_.verify_commitments(elems, schedule_.threshold)) continue;
        dealer.commitments = std::move(elems);
        dealer.my_share_verifies.reset();
      } else if (m.tag == kVssShareTag) {
        if (m.from >= schedule_.n || m.round != schedule_.deal_round[m.from] || m.to != me_)
          continue;
        DealerState& dealer = dealers_[m.from];
        if (dealer.my_share.has_value()) continue;
        const auto share = crypto::decode_pedersen_share(m.payload, group_->q());
        if (share.x != me_ + 1) continue;
        // Stored even before the commitments arrive in the same round's
        // batch: validity is checked where the share is used.
        dealer.my_share = share;
        dealer.my_share_verifies.reset();
      } else if (m.tag == kPokCommitTag) {
        if (!schedule_.pok.has_value() || m.from >= schedule_.n) continue;
        if (m.round != (*schedule_.pok)[m.from].commit) continue;
        DealerState& dealer = dealers_[m.from];
        if (dealer.pok_a.has_value() || m.payload.size() != 8) continue;
        ByteReader r(m.payload);
        dealer.pok_a = r.u64();
      } else if (m.tag == kPokChallengeTag) {
        if (m.payload.size() != 8) continue;
        ByteReader r(m.payload);
        auto& per_round = challenge_contributions_[m.round];
        per_round.emplace(m.from, r.u64());  // first contribution wins
      } else if (m.tag == kPokResponseTag) {
        if (!schedule_.pok.has_value() || m.from >= schedule_.n) continue;
        if (m.round != (*schedule_.pok)[m.from].response) continue;
        DealerState& dealer = dealers_[m.from];
        if (dealer.pok_response.has_value() || m.payload.size() != 24) continue;
        ByteReader r(m.payload);
        crypto::SigmaResponse resp;
        resp.a = r.u64();
        resp.z1 = crypto::Zq{r.u64(), group_->q()};
        resp.z2 = crypto::Zq{r.u64(), group_->q()};
        dealer.pok_response = resp;
      } else if (m.tag == kVssComplainTag) {
        if (m.from >= schedule_.n || m.round != schedule_.complaint_round) continue;
        if (m.payload.size() != 8) continue;
        ByteReader r(m.payload);
        const std::uint64_t mask = r.u64();
        for (std::size_t d = 0; d < schedule_.n; ++d) {
          if ((mask >> d) & 1u) dealers_[d].complaints.emplace(m.from, false);
        }
      } else if (m.tag == kVssJustifyTag) {
        if (m.from >= schedule_.n || m.round != schedule_.justify_round) continue;
        DealerState& dealer = dealers_[m.from];  // dealers justify themselves
        ByteReader r(m.payload);
        const sim::PartyId complainer = r.u64();
        const auto share = crypto::decode_pedersen_share(r.bytes(), group_->q());
        if (share.x != complainer + 1) continue;
        auto it = dealer.complaints.find(complainer);
        if (it == dealer.complaints.end()) continue;
        if (!dealer.commitments.has_value()) continue;
        if (!vss_.verify_share(*dealer.commitments, share)) continue;
        it->second = true;
        add_public_share(dealer, share);
        if (complainer == me_ && !dealer.my_share.has_value()) {
          dealer.my_share = share;
          dealer.my_share_verifies = true;  // verified just above
        }
      } else if (m.tag == kVssRevealTag) {
        if (m.from >= schedule_.n || m.round != schedule_.reconstruct_round) continue;
        ByteReader r(m.payload);
        const std::uint64_t dealer_id = r.u64();
        if (dealer_id >= schedule_.n) continue;
        const auto share = crypto::decode_pedersen_share(r.bytes(), group_->q());
        if (share.x != m.from + 1) continue;  // a party reveals only its own share
        add_public_share(dealers_[dealer_id], share);
      }
    } catch (const Error&) {
      // Malformed adversarial message: ignored; the sender's coordinate
      // degrades toward the default 0 on its own.
    }
  }
  (void)ctx;
}

crypto::Zq VssProtocolParty::joint_challenge(sim::Round challenge_round) const {
  crypto::Zq c{0, group_->q()};
  const auto it = challenge_contributions_.find(challenge_round);
  if (it != challenge_contributions_.end()) {
    for (const auto& [from, contribution] : it->second) c += crypto::Zq{contribution, group_->q()};
  }
  const auto mine = my_contributions_.find(challenge_round);
  if (mine != my_contributions_.end()) c += crypto::Zq{mine->second, group_->q()};
  return c;
}

void VssProtocolParty::decide_disqualifications() {
  for (std::size_t d = 0; d < schedule_.n; ++d) {
    DealerState& dealer = dealers_[d];
    if (!dealer.commitments.has_value()) {
      dealer.disqualified = true;
      continue;
    }
    if (schedule_.pok.has_value()) {
      const PokRounds& rounds = (*schedule_.pok)[d];
      if (!dealer.pok_a.has_value() || !dealer.pok_response.has_value() ||
          dealer.pok_response->a != *dealer.pok_a ||
          !crypto::sigma_verify(*group_, dealer.commitments->front(),
                                joint_challenge(rounds.challenge), *dealer.pok_response)) {
        dealer.disqualified = true;
        continue;
      }
    }
    for (const auto& [complainer, justified] : dealer.complaints) {
      if (!justified) {
        dealer.disqualified = true;
        break;
      }
    }
  }
}

void VssProtocolParty::on_round(sim::Round round, const sim::Inbox& inbox,
                                sim::PartyContext& ctx) {
  record(inbox, ctx);

  if (round == schedule_.deal_round[me_]) deal(ctx);

  if (schedule_.pok.has_value()) {
    const PokRounds& mine = (*schedule_.pok)[me_];
    if (round == mine.commit && my_secret_.has_value()) {
      my_pok_ = crypto::sigma_commit(*group_, ctx.drbg());
      ByteWriter w = ctx.writer();
      w.u64(my_pok_->a);
      ctx.broadcast(kPokCommitTag, w.take());
      dealers_[me_].pok_a = my_pok_->a;
    }
    // Contribute to every batch's joint challenge (one broadcast per
    // distinct challenge round).
    bool is_challenge_round = false;
    for (const PokRounds& p : *schedule_.pok)
      if (p.challenge == round) is_challenge_round = true;
    if (is_challenge_round && !my_contributions_.contains(round)) {
      const std::uint64_t contribution = ctx.drbg().below(group_->q());
      my_contributions_[round] = contribution;
      ByteWriter w = ctx.writer();
      w.u64(contribution);
      ctx.broadcast(kPokChallengeTag, w.take());
    }
    if (round == mine.response && my_pok_.has_value()) {
      const crypto::Zq c = joint_challenge(mine.challenge);
      const crypto::SigmaResponse resp =
          crypto::sigma_respond(*my_pok_, c, *my_secret_, *my_secret_blinding_);
      ByteWriter w = ctx.writer();
      w.u64(resp.a);
      w.u64(resp.z1.value());
      w.u64(resp.z2.value());
      ctx.broadcast(kPokResponseTag, w.take());
      dealers_[me_].pok_response = resp;
    }
  }

  if (round == schedule_.complaint_round) {
    std::uint64_t mask = 0;
    for (std::size_t d = 0; d < schedule_.n; ++d) {
      // Missing commitments, a missing share and a bad share all count.
      if (d != me_ && !my_share_verifies(dealers_[d])) mask |= (std::uint64_t{1} << d);
    }
    // Broadcasts are not self-delivered, so register my own complaints
    // locally too - every party must evaluate the same complaint set.
    for (std::size_t d = 0; d < schedule_.n; ++d)
      if ((mask >> d) & 1u) dealers_[d].complaints.emplace(me_, false);
    ByteWriter w = ctx.writer();
    w.u64(mask);
    ctx.broadcast(kVssComplainTag, w.take());
  }

  if (round == schedule_.justify_round && my_deal_.has_value()) {
    for (auto& [complainer, justified] : dealers_[me_].complaints) {
      if (complainer >= schedule_.n) continue;
      ctx.broadcast(kVssJustifyTag, encode_justify(complainer, my_deal_->shares[complainer]));
      // Mark my own justification locally (no self-delivery of broadcasts).
      justified = true;
      add_public_share(dealers_[me_], my_deal_->shares[complainer]);
    }
  }

  if (round == schedule_.reconstruct_round) {
    decide_disqualifications();
    for (std::size_t d = 0; d < schedule_.n; ++d) {
      DealerState& dealer = dealers_[d];
      if (dealer.disqualified || !my_share_verifies(dealer)) continue;
      ctx.broadcast(kVssRevealTag, encode_reveal(d, *dealer.my_share));
    }
  }
}

void VssProtocolParty::finish(const sim::Inbox& inbox, sim::PartyContext& ctx) {
  record(inbox, ctx);
  for (std::size_t d = 0; d < schedule_.n; ++d) {
    DealerState& dealer = dealers_[d];
    if (dealer.disqualified) continue;  // announced 0
    // Pool of verifying shares: public (justified + revealed) plus my own.
    std::vector<crypto::PedersenShare> pool = dealer.public_shares;
    if (dealer.my_share.has_value() &&
        !dealer.public_share_points.contains(dealer.my_share->x) && my_share_verifies(dealer))
      pool.push_back(*dealer.my_share);
    if (pool.size() < schedule_.threshold + 1) continue;  // unreconstructable -> 0
    pool.resize(schedule_.threshold + 1);
    const crypto::Zq secret = vss_.reconstruct(pool);
    result_.set(d, secret.value() == 1);  // any other value -> default 0
  }
  decided_ = true;
}

BitVec VssProtocolParty::output() const {
  if (!decided_) throw ProtocolError("VssProtocolParty: output before finish");
  return result_;
}

}  // namespace simulcast::protocols
