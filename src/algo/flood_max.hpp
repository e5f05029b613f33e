// Known-N flooding baselines.
//
// The textbook O(N) algorithms in always-connected dynamic networks: with N
// known, re-broadcasting the running extreme for N-1 rounds is guaranteed to
// reach everyone (1-interval connectivity moves the frontier by >= 1 node per
// round). These are the linear yardsticks the sublinear claim is measured
// against, and the correctness oracles in tests.
#pragma once

#include <optional>
#include <span>

#include "algo/common.hpp"

namespace sdn::algo {

/// Max with known N: decide max input after N-1 rounds. Deterministic.
class FloodMaxKnownN {
 public:
  struct Message {
    Value value = 0;
  };
  using Output = Value;

  FloodMaxKnownN(NodeId id, NodeId n, Value input);

  /// Send (net::NodeProgram): overwrites the whole slot, reads only
  /// `best_`.
  bool OnSendInto(Round r, Message& m);
  void OnReceive(Round r, Inbox<Message> inbox);
  [[nodiscard]] bool HasDecided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<Output> output() const { return decided_; }
  [[nodiscard]] double PublicState() const {
    return static_cast<double>(best_);
  }
  static std::size_t MessageBits(const Message& m) {
    return ValueBits(m.value);
  }

  static AlgoInfo Info() { return {"flood-max(knownN)", false, true, false}; }

  /// Flight-recorder phase sample (net::ObservableProgram): a single
  /// "flood" segment until decision; work counts max improvements.
  [[nodiscard]] net::ProgramPhase ObsPhase() const {
    return {.label = decided_.has_value() ? "decided" : "flood",
            .index = 0,
            .work = obs_work_};
  }

 private:
  NodeId n_;
  Value best_;
  std::int64_t obs_work_ = 0;
  std::optional<Value> decided_;
};

/// Consensus with known N: flood (min id, its input); after N-1 rounds every
/// node has the global minimum id and decides its value. Deterministic;
/// satisfies agreement + validity.
class ConsensusFloodKnownN {
 public:
  struct Message {
    NodeId leader = 0;
    Value value = 0;
  };
  using Output = Value;

  ConsensusFloodKnownN(NodeId id, NodeId n, Value input);

  /// Send (net::NodeProgram): overwrites the whole slot, reads only the
  /// leader pair.
  bool OnSendInto(Round r, Message& m);
  void OnReceive(Round r, Inbox<Message> inbox);
  [[nodiscard]] bool HasDecided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<Output> output() const { return decided_; }
  [[nodiscard]] double PublicState() const {
    return static_cast<double>(leader_);
  }
  static std::size_t MessageBits(const Message& m) {
    return IdBits(m.leader) + ValueBits(m.value);
  }

  static AlgoInfo Info() {
    return {"flood-consensus(knownN)", false, true, false};
  }

  /// Flight-recorder phase sample (net::ObservableProgram): a single
  /// "flood" segment until decision; work counts leader improvements.
  [[nodiscard]] net::ProgramPhase ObsPhase() const {
    return {.label = decided_.has_value() ? "decided" : "flood",
            .index = 0,
            .work = obs_work_};
  }

 private:
  NodeId n_;
  NodeId leader_;
  Value leader_value_;
  std::int64_t obs_work_ = 0;
  std::optional<Value> decided_;
};

}  // namespace sdn::algo
