// KLO-style census counting with guess-doubling and sound verification.
//
// The deterministic exact baseline (Kuhn–Lynch–Oshman lineage). Structure:
//
//   guess k = 1, 2, 4, ... ; for each guess:
//     dissemination: ⌈k/B⌉ stages of Θ(k + T) rounds. Nodes forward id
//       tokens by global priority: stage s only forwards ids of census rank
//       >= s·B (everything below rank s·B is already everywhere by
//       induction), and each T-round window re-sends its B smallest pending
//       tokens (re-sending per window is what survives re-wiring; B = ⌈T/2⌉
//       tokens pipeline through the window's stable spanning subgraph).
//     verification: 2k+2 rounds. Each node freezes its census, sets
//       flag := (|census| <= k), broadcasts (census hash, flag); a neighbor
//       with a different hash or flag 0 flips the flag to 0.
//
//   Soundness (unconditional): if a node finishes verification with flag 1,
//   its causal past over those 2k+2 rounds spans min(N, 2k+3) nodes, all of
//   whose censuses matched its own — so either the census contains > k ids
//   (flag was 0) or it contains every node. Hence a decision is always the
//   exact count, decisions are all-or-none per guess, and termination follows
//   once k is large enough for dissemination to complete.
//
// Round complexity: O(N²) at pipeline_T = 1 (the classic always-connected
// baseline) and O(N + N²/T)-shaped with pipeline_T = T — both contain the
// Ω(N) term the paper's algorithms remove.
//
// The same run answers Count (|census|), Max (flooded max aggregate) and
// Consensus (value of the min id) — aggregates ride along on every token.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "algo/common.hpp"
#include "algo/idset.hpp"

namespace sdn::algo {

struct CensusOptions {
  /// Window length used for pipelined forwarding; use 1 for the classic
  /// always-connected baseline, or the adversary's T to exploit stability.
  int pipeline_T = 1;
  /// Multiplier on dissemination stage length (ablation knob).
  double slack = 1.0;
};

/// Everything a census run decides, in one shot.
struct CensusOutput {
  std::int64_t count = 0;
  Value max_value = 0;
  Value consensus_value = 0;
  /// The guess k that succeeded (for reports).
  std::int64_t accepted_guess = 0;
};

class CensusProgram {
 public:
  enum class Tag : std::uint8_t { kToken, kVerify };

  struct Message {
    Tag tag = Tag::kToken;
    // kToken fields:
    NodeId token = -1;  // -1 = no token to forward this round
    // Flooded aggregates (ride on every token message):
    NodeId min_id = 0;
    Value min_id_value = 0;
    Value max_value = 0;
    // kVerify fields:
    std::uint64_t hash = 0;  // 48-bit census hash
    bool flag = false;
  };
  using Output = CensusOutput;

  CensusProgram(NodeId id, Value input, CensusOptions options);

  /// Send (net::NodeProgram): composes the round's
  /// message straight into `m`, overwriting every field (the slot is
  /// reused across rounds).
  bool OnSendInto(Round r, Message& m);
  void OnReceive(Round r, Inbox<Message> inbox);
  [[nodiscard]] bool HasDecided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<Output> output() const { return decided_; }
  [[nodiscard]] double PublicState() const {
    return static_cast<double>(census_.size());
  }
  static std::size_t MessageBits(const Message& m);

  static AlgoInfo InfoFor(int pipeline_T);

  /// Schedule position of absolute round r (exposed for tests).
  struct Position {
    std::int64_t guess_k = 1;
    bool verifying = false;
    std::int64_t stage = 0;         // dissemination only
    std::int64_t window = 0;        // window index within the guess
    std::int64_t verify_round = 0;  // 0-based within verification
    bool last_round_of_guess = false;
  };
  [[nodiscard]] Position Locate(Round r) const;

  /// Cursor-accelerated Locate: same result for every r (tests pin the
  /// equivalence), O(1) amortized when rounds are queried in order.
  /// OnSendInto/OnReceive go through this.
  [[nodiscard]] Position LocateFast(Round r) const;

  /// Flight-recorder phase sample (net::ObservableProgram): label is the
  /// guess segment ("disseminate"/"verify"/"decided"), index the guess k,
  /// work the cumulative census insertions.
  [[nodiscard]] net::ProgramPhase ObsPhase() const { return obs_phase_; }

  /// Tokens re-sent per window: B = ⌈pipeline_T / 2⌉.
  [[nodiscard]] std::int64_t band_size() const;
  /// Stage length in rounds for guess k (multiple of pipeline_T).
  [[nodiscard]] std::int64_t StageLength(std::int64_t k) const;

 private:
  void Decide();

  CensusOptions options_;
  NodeId id_;

  IdSet census_;
  NodeId agg_min_id_;
  Value agg_min_value_;
  Value agg_max_value_;

  // Dissemination bookkeeping: the (guess, window) the sent-set belongs to.
  std::pair<std::int64_t, std::int64_t> window_key_{-1, -1};
  std::vector<NodeId> sent_this_window_;

  // Verification bookkeeping.
  std::int64_t verify_key_ = -1;  // guess whose verification is frozen
  std::uint64_t frozen_hash_ = 0;
  bool flag_ = false;

  /// Schedule cursor for LocateFast (mutable: advancing it is invisible —
  /// every Position it produces equals Locate(r)).
  mutable PhaseCursor cursor_;

  /// Updated in OnReceive; read by the engine only while a recorder is
  /// attached.
  net::ProgramPhase obs_phase_{.label = "disseminate", .index = 1};

  std::optional<CensusOutput> decided_;
};

}  // namespace sdn::algo
