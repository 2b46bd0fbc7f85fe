// Shared machinery of the three "real" simultaneous-broadcast protocols.
//
// CGMA [7], Chor-Rabin [8] and Gennaro [12] all follow the same robust
// commit-then-reveal skeleton; what differs is the *scheduling* of the
// commit phase, which is precisely where their round complexities (linear,
// logarithmic, constant) come from:
//
//   deal      every party Pedersen-VSS-shares its input bit (degree t,
//             t < n/2): commitments on the broadcast channel, shares on
//             private channels.  Perfect hiding means nothing about the bit
//             leaks; any t+1 verifying shares pin the bit down, so the
//             announced value of every party - including corrupted ones -
//             is fixed and *recoverable by the honest majority* at the end
//             of the commit phase.  This is what defeats selective-abort
//             correlation attacks (contrast protocols/naive_commit_reveal.h).
//   (PoK)     Chor-Rabin only: each dealer proves knowledge of its
//             committed secret with an interactive sigma protocol, batched
//             into ceil(log2 n) groups of three rounds - the paper's
//             logarithmic schedule.  Dealers that fail are disqualified
//             before anything is revealed, so commitment copying/mauling is
//             neutralized during the commit phase.
//   complain  every party broadcasts a bitmask of dealers whose shares were
//             missing or invalid.
//   justify   an accused dealer publicly broadcasts the complained shares;
//             failure to justify disqualifies the dealer (announced 0, per
//             the paper's footnote-2 default), decided before any reveal.
//   reveal    every party broadcasts its (verifying) shares of every
//             qualified dealer; reconstruction needs t+1 of them and the
//             honest parties alone supply n - t >= t+1.
//
// VssProtocolParty implements the whole skeleton once, driven by a
// VssSchedule; the three protocol classes in cgma.h / chor_rabin.h /
// gennaro.h only build schedules.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "crypto/sigma.h"
#include "crypto/vss.h"
#include "sim/protocol.h"

namespace simulcast::protocols {

/// Message tags of the VSS skeleton (payload formats in vss_core.cpp).
inline const sim::Tag kVssCommitTag{"vss-commit"};
inline const sim::Tag kVssShareTag{"vss-share"};
inline const sim::Tag kVssComplainTag{"vss-complain"};
inline const sim::Tag kVssJustifyTag{"vss-justify"};
inline const sim::Tag kVssRevealTag{"vss-reveal"};
inline const sim::Tag kPokCommitTag{"pok-a"};
inline const sim::Tag kPokChallengeTag{"pok-chal"};
inline const sim::Tag kPokResponseTag{"pok-resp"};

/// Rounds of one sigma-protocol batch (A, joint challenge, response).
struct PokRounds {
  sim::Round commit = 0;
  sim::Round challenge = 0;
  sim::Round response = 0;
};

/// The full round schedule of a VSS-skeleton protocol.
struct VssSchedule {
  std::size_t n = 0;
  std::size_t threshold = 0;            ///< polynomial degree = corruption bound t
  std::vector<sim::Round> deal_round;   ///< deal_round[d] for dealer d
  std::optional<std::vector<PokRounds>> pok;  ///< per-dealer PoK rounds (Chor-Rabin)
  sim::Round complaint_round = 0;
  sim::Round justify_round = 0;
  sim::Round reconstruct_round = 0;
  std::size_t total_rounds = 0;

  /// Validates internal consistency (ordering, sizes); throws UsageError.
  void validate() const;
};

/// The honest machine. Exposed (rather than hidden in a .cpp) so that
/// adversaries built from honest machines can parameterize them.
class VssProtocolParty final : public sim::Party {
 public:
  VssProtocolParty(VssSchedule schedule, bool input);

  /// Replaces the input bit; only meaningful before this party's deal
  /// round.  Honest parties never call this - it exists for adaptive
  /// adversaries (e.g. the share-snooping attack of experiment E12) that
  /// drive an honest machine with a late-chosen input.
  void set_input(bool input) noexcept { input_ = input; }

  void begin(sim::PartyContext& ctx) override;
  void on_round(sim::Round round, const sim::Inbox& inbox,
                sim::PartyContext& ctx) override;
  void finish(const sim::Inbox& inbox, sim::PartyContext& ctx) override;
  [[nodiscard]] BitVec output() const override;

 private:
  struct DealerState {
    std::optional<std::vector<std::uint64_t>> commitments;  ///< C_j vector
    std::optional<crypto::PedersenShare> my_share;          ///< my share, unverified
    /// Cached verify_share(commitments, my_share); reset whenever either
    /// field is assigned.
    std::optional<bool> my_share_verifies;
    std::vector<crypto::PedersenShare> public_shares;       ///< justified + revealed, verified
    std::set<std::uint64_t> public_share_points;            ///< dedupe by x
    // PoK transcript pieces.
    std::optional<std::uint64_t> pok_a;
    std::optional<crypto::SigmaResponse> pok_response;
    // Complaints against this dealer: complainer -> justified?
    std::map<sim::PartyId, bool> complaints;
    bool disqualified = false;
  };

  void record(const sim::Inbox& inbox, sim::PartyContext& ctx);
  void deal(sim::PartyContext& ctx);
  void add_public_share(DealerState& state, const crypto::PedersenShare& share);
  /// True when the dealer's commitments and my share are both present and
  /// the share verifies; computed once per (commitments, share) pair.
  [[nodiscard]] bool my_share_verifies(DealerState& state);
  [[nodiscard]] crypto::Zq joint_challenge(sim::Round challenge_round) const;
  void decide_disqualifications();

  VssSchedule schedule_;
  bool input_;
  const crypto::SchnorrGroup* group_ = nullptr;
  crypto::PedersenVss vss_;
  sim::PartyId me_ = 0;

  // My own deal (needed for PoK responses and my reveal).
  std::optional<crypto::PedersenDeal> my_deal_;
  std::optional<crypto::Zq> my_secret_;
  std::optional<crypto::Zq> my_secret_blinding_;
  std::optional<crypto::SigmaCommitment> my_pok_;

  std::vector<DealerState> dealers_;
  /// Challenge contributions seen, keyed by the round they were sent in.
  std::map<sim::Round, std::map<sim::PartyId, std::uint64_t>> challenge_contributions_;
  /// My own contributions per challenge round (broadcasts are not
  /// self-delivered).
  std::map<sim::Round, std::uint64_t> my_contributions_;
  bool decided_ = false;
  BitVec result_;
};

/// Convenience: the corruption bound used by all VSS protocols.
[[nodiscard]] constexpr std::size_t vss_threshold(std::size_t n) noexcept {
  return (n - 1) / 2;
}

}  // namespace simulcast::protocols
