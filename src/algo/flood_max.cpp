#include "algo/flood_max.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sdn::algo {

FloodMaxKnownN::FloodMaxKnownN(NodeId id, NodeId n, Value input)
    : n_(n), best_(input) {
  SDN_CHECK(id >= 0 && id < n);
  if (n_ <= 1) decided_ = best_;
}

bool FloodMaxKnownN::OnSendInto(Round, Message& m) {
  if (decided_.has_value()) return false;
  m = Message{best_};
  return true;
}

void FloodMaxKnownN::OnReceive(Round r, Inbox<Message> inbox) {
  if (decided_.has_value()) return;
  // Inbox may be dense-backed (direct outbox indexing) or a pointer gather;
  // iteration reads each neighbor's message in place either way.
  for (const Message& m : inbox) {
    if (m.value > best_) {
      best_ = m.value;
      ++obs_work_;
    }
  }
  // After round N-1, the running max has traversed any 1-interval-connected
  // sequence: the informed set grows by >= 1 node per round until it spans.
  if (r >= n_ - 1) decided_ = best_;
}

ConsensusFloodKnownN::ConsensusFloodKnownN(NodeId id, NodeId n, Value input)
    : n_(n), leader_(id), leader_value_(input) {
  SDN_CHECK(id >= 0 && id < n);
  if (n_ <= 1) decided_ = leader_value_;
}

bool ConsensusFloodKnownN::OnSendInto(Round, Message& m) {
  if (decided_.has_value()) return false;
  m = Message{leader_, leader_value_};
  return true;
}

void ConsensusFloodKnownN::OnReceive(Round r, Inbox<Message> inbox) {
  if (decided_.has_value()) return;
  for (const Message& m : inbox) {
    if (m.leader < leader_) {
      leader_ = m.leader;
      leader_value_ = m.value;
      ++obs_work_;
    }
  }
  if (r >= n_ - 1) decided_ = leader_value_;
}

}  // namespace sdn::algo
