// The classic Kuhn–Lynch–Oshman k-committee protocol (STOC 2010), faithful
// to the original structure (the census module is the pipelined
// re-engineering; this is the literature baseline as published).
//
// For guess k = 1, 2, 4, ...:
//   k cycles, each of 2k rounds:
//     polling (k rounds): uncommitted nodes inject their id; everyone relays
//       the smallest uncommitted id heard. Messages also carry the smallest
//       leader id seen (implicit leader election) plus the flooded
//       max/consensus aggregates.
//     invitation (k rounds): each self-believed leader invites the smallest
//       uncommitted id it heard; invitations (leader, invitee) flood; the
//       invitee joins the leader's committee.
//   After the cycles, still-uncommitted nodes form singleton committees.
//   Verification (2k+2 rounds): broadcast (committee, flag); different
//   committee or flag 0 flips the flag — a node that keeps flag 1 has a
//   causal past of min(N, 2k+3) nodes all in its committee, so either
//   committees are impossible (> k+1 members) or the committee spans all N.
//   Size dissemination (k rounds): the leader floods its distinct-invitee
//   count + 1; on flag 1 everyone decides it.
//
// Exact and deterministic; Θ(k²) per guess, O(N²) total; all-or-none
// decisions per guess by the same argument as the census module.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "algo/common.hpp"
#include "algo/idset.hpp"

namespace sdn::algo {

class KloCommitteeProgram {
 public:
  enum class Tag : std::uint8_t { kPoll, kInvite, kVerify, kSize };

  struct Message {
    Tag tag = Tag::kPoll;
    NodeId leader = 0;          // smallest leader id seen (all tags)
    Value leader_value = 0;     // its input (consensus piggyback)
    Value max_value = 0;        // max aggregate piggyback
    NodeId poll = -1;           // kPoll: smallest uncommitted id (-1 none)
    NodeId invitee = -1;        // kInvite: invited node (-1 none)
    NodeId committee = -1;      // kVerify: committee id
    bool flag = false;          // kVerify
    std::int64_t size = 0;      // kSize: committee size claim
  };

  struct Output {
    std::int64_t count = 0;
    Value max_value = 0;
    Value consensus_value = 0;
    std::int64_t accepted_guess = 0;
  };

  KloCommitteeProgram(NodeId id, Value input);

  /// Send (net::NodeProgram): composes the round's
  /// message straight into `m`, overwriting every field.
  bool OnSendInto(Round r, Message& m);
  void OnReceive(Round r, Inbox<Message> inbox);
  [[nodiscard]] bool HasDecided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<Output> output() const { return decided_; }
  [[nodiscard]] double PublicState() const {
    return static_cast<double>(committee_.value_or(-1));
  }
  static std::size_t MessageBits(const Message& m);

  static AlgoInfo Info() {
    return {"klo-committee", /*randomized=*/false, /*needs_n=*/false,
            /*unbounded_msgs=*/false};
  }

  /// Schedule position (exposed for tests).
  struct Position {
    std::int64_t guess_k = 1;
    enum class Phase { kPoll, kInvite, kVerify, kSize } phase = Phase::kPoll;
    std::int64_t cycle = 0;        // 0-based, for poll/invite
    std::int64_t round_in_phase = 0;
    bool first_round_of_guess = false;
    bool last_round_of_guess = false;
  };
  [[nodiscard]] static Position Locate(Round r);

  /// Cursor-accelerated Locate: same result for every r (tests pin the
  /// equivalence), O(1) amortized when rounds are queried in order.
  /// OnSendInto/OnReceive go through this.
  [[nodiscard]] Position LocateFast(Round r) const;

  /// Flight-recorder phase sample (net::ObservableProgram): label is the
  /// guess segment ("poll"/"invite"/"verify"/"size"/"decided"), index the
  /// guess k, work the cumulative committee joins observed by this node.
  [[nodiscard]] net::ProgramPhase ObsPhase() const { return obs_phase_; }

 private:
  void ResetForGuess(std::int64_t k);

  NodeId id_;
  Value input_;

  // Aggregates (survive across guesses; min-leader + max flood).
  NodeId leader_;
  Value leader_value_;
  Value max_value_;

  // Per-guess state.
  std::int64_t guess_ = 0;  // 0 = not initialized yet
  std::optional<NodeId> committee_;
  IdSet invited_;                // leader only: distinct invitees
  NodeId poll_best_ = -1;        // smallest uncommitted id this polling phase
  std::int64_t poll_cycle_ = -1;
  NodeId invite_leader_ = -1;    // invitation being relayed this cycle
  NodeId invite_target_ = -1;
  std::int64_t invite_cycle_ = -1;
  bool flag_ = false;
  bool verify_initialized_ = false;
  std::int64_t size_claim_ = 0;

  /// Schedule cursor for LocateFast (mutable: advancing it is invisible —
  /// every Position it produces equals Locate(r)).
  mutable PhaseCursor cursor_;

  /// Updated in OnReceive; read by the engine only while a recorder is
  /// attached.
  net::ProgramPhase obs_phase_{.label = "poll", .index = 1};

  std::optional<Output> decided_;
};

}  // namespace sdn::algo
