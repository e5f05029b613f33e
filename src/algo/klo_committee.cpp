#include "algo/klo_committee.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sdn::algo {

namespace {

/// Lexicographic compare of invitations; (-1, -1) means "none".
bool InvitationLess(NodeId la, NodeId ta, NodeId lb, NodeId tb) {
  if (lb < 0) return la >= 0;
  if (la < 0) return false;
  if (la != lb) return la < lb;
  return ta < tb;
}

/// Min over poll ids where -1 means "none".
NodeId PollMin(NodeId a, NodeId b) {
  if (a < 0) return b;
  if (b < 0) return a;
  return std::min(a, b);
}

}  // namespace

KloCommitteeProgram::KloCommitteeProgram(NodeId id, Value input)
    : id_(id),
      input_(input),
      leader_(id),
      leader_value_(input),
      max_value_(input) {
  SDN_CHECK(id >= 0);
}

KloCommitteeProgram::Position KloCommitteeProgram::Locate(Round r) {
  SDN_CHECK(r >= 1);
  std::int64_t offset = r - 1;
  std::int64_t k = 1;
  while (true) {
    const std::int64_t cycles = 2 * k * k;      // k cycles of 2k rounds
    const std::int64_t verify = 2 * k + 2;
    const std::int64_t size = 2 * k + 2;
    const std::int64_t total = cycles + verify + size;
    if (offset < total) {
      Position pos;
      pos.guess_k = k;
      pos.first_round_of_guess = (offset == 0);
      pos.last_round_of_guess = (offset == total - 1);
      if (offset < cycles) {
        pos.cycle = offset / (2 * k);
        const std::int64_t in_cycle = offset % (2 * k);
        if (in_cycle < k) {
          pos.phase = Position::Phase::kPoll;
          pos.round_in_phase = in_cycle;
        } else {
          pos.phase = Position::Phase::kInvite;
          pos.round_in_phase = in_cycle - k;
        }
      } else if (offset < cycles + verify) {
        pos.phase = Position::Phase::kVerify;
        pos.round_in_phase = offset - cycles;
      } else {
        pos.phase = Position::Phase::kSize;
        pos.round_in_phase = offset - cycles - verify;
      }
      return pos;
    }
    offset -= total;
    SDN_CHECK_MSG(k < (std::int64_t{1} << 32), "klo-committee guess overflow");
    k *= 2;
  }
}

KloCommitteeProgram::Position KloCommitteeProgram::LocateFast(Round r) const {
  SDN_CHECK(r >= 1);
  const std::int64_t offset = r - 1;
  const auto length_of = [](std::int64_t k) {
    return 2 * k * k + (2 * k + 2) + (2 * k + 2);
  };
  if (cursor_.length == 0 || offset < cursor_.start) {
    // Uninitialized, or a backward query (tests): restart from guess 1.
    cursor_ = PhaseCursor{};
    cursor_.param = 1;
    cursor_.length = length_of(cursor_.param);
  }
  while (offset >= cursor_.start + cursor_.length) {
    cursor_.start += cursor_.length;
    ++cursor_.phase;
    SDN_CHECK_MSG(cursor_.param < (std::int64_t{1} << 32),
                  "klo-committee guess overflow");
    cursor_.param *= 2;
    cursor_.length = length_of(cursor_.param);
  }
  const std::int64_t k = cursor_.param;
  const std::int64_t in_phase = offset - cursor_.start;
  const std::int64_t cycles = 2 * k * k;
  const std::int64_t verify = 2 * k + 2;
  Position pos;
  pos.guess_k = k;
  pos.first_round_of_guess = (in_phase == 0);
  pos.last_round_of_guess = (in_phase == cursor_.length - 1);
  if (in_phase < cycles) {
    pos.cycle = in_phase / (2 * k);
    const std::int64_t in_cycle = in_phase % (2 * k);
    if (in_cycle < k) {
      pos.phase = Position::Phase::kPoll;
      pos.round_in_phase = in_cycle;
    } else {
      pos.phase = Position::Phase::kInvite;
      pos.round_in_phase = in_cycle - k;
    }
  } else if (in_phase < cycles + verify) {
    pos.phase = Position::Phase::kVerify;
    pos.round_in_phase = in_phase - cycles;
  } else {
    pos.phase = Position::Phase::kSize;
    pos.round_in_phase = in_phase - cycles - verify;
  }
  return pos;
}

void KloCommitteeProgram::ResetForGuess(std::int64_t k) {
  guess_ = k;
  committee_.reset();
  invited_ = IdSet();
  poll_best_ = -1;
  poll_cycle_ = -1;
  invite_leader_ = -1;
  invite_target_ = -1;
  invite_cycle_ = -1;
  flag_ = false;
  verify_initialized_ = false;
  size_claim_ = 0;
}

bool KloCommitteeProgram::OnSendInto(Round r, Message& m) {
  if (decided_.has_value()) return false;
  const Position pos = LocateFast(r);
  if (pos.first_round_of_guess) ResetForGuess(pos.guess_k);

  m = Message{};  // full overwrite: the outbox slot is reused across rounds
  m.leader = leader_;
  m.leader_value = leader_value_;
  m.max_value = max_value_;

  switch (pos.phase) {
    case Position::Phase::kPoll: {
      if (poll_cycle_ != pos.cycle) {
        poll_cycle_ = pos.cycle;
        // Uncommitted nodes inject themselves; everyone else only relays.
        poll_best_ = committee_.has_value() ? -1 : id_;
      }
      m.tag = Tag::kPoll;
      m.poll = poll_best_;
      return true;
    }
    case Position::Phase::kInvite: {
      if (invite_cycle_ != pos.cycle) {
        invite_cycle_ = pos.cycle;
        invite_leader_ = -1;
        invite_target_ = -1;
        if (leader_ == id_) {
          committee_ = id_;  // a leader heads its own committee
          if (poll_best_ >= 0 && poll_best_ != id_) {
            invite_leader_ = id_;
            invite_target_ = poll_best_;
            invited_.Insert(poll_best_);
          }
        }
      }
      m.tag = Tag::kInvite;
      m.leader = leader_;
      m.invitee = invite_target_;
      // The invitation's issuer rides in the leader field when relaying.
      if (invite_leader_ >= 0) m.leader = invite_leader_;
      m.invitee = invite_target_;
      return true;
    }
    case Position::Phase::kVerify: {
      if (!verify_initialized_) {
        verify_initialized_ = true;
        if (!committee_.has_value()) committee_ = id_;  // singleton fallback
        flag_ = true;
      }
      m.tag = Tag::kVerify;
      m.committee = *committee_;
      m.flag = flag_;
      return true;
    }
    case Position::Phase::kSize: {
      if (pos.round_in_phase == 0 && committee_ == id_) {
        size_claim_ = invited_.size() + 1;
      }
      m.tag = Tag::kSize;
      m.size = size_claim_;
      return true;
    }
  }
  return false;
}

void KloCommitteeProgram::OnReceive(Round r, Inbox<Message> inbox) {
  if (decided_.has_value()) return;
  const Position pos = LocateFast(r);
  switch (pos.phase) {
    case Position::Phase::kPoll:
      obs_phase_.label = "poll";
      break;
    case Position::Phase::kInvite:
      obs_phase_.label = "invite";
      break;
    case Position::Phase::kVerify:
      obs_phase_.label = "verify";
      break;
    case Position::Phase::kSize:
      obs_phase_.label = "size";
      break;
  }
  obs_phase_.index = pos.guess_k;

  for (const Message& m : inbox) {
    if (m.leader < leader_ && m.tag != Tag::kInvite) {
      leader_ = m.leader;
      leader_value_ = m.leader_value;
    }
    max_value_ = std::max(max_value_, m.max_value);
    switch (m.tag) {
      case Tag::kPoll:
        poll_best_ = PollMin(poll_best_, m.poll);
        break;
      case Tag::kInvite:
        if (m.invitee >= 0) {
          if (m.invitee == id_ && m.leader == leader_) {
            if (committee_ != m.leader) ++obs_phase_.work;
            committee_ = m.leader;
          }
          if (InvitationLess(m.leader, m.invitee, invite_leader_,
                             invite_target_)) {
            invite_leader_ = m.leader;
            invite_target_ = m.invitee;
          }
        }
        break;
      case Tag::kVerify:
        if (m.committee != committee_.value_or(-1) || !m.flag) flag_ = false;
        break;
      case Tag::kSize:
        size_claim_ = std::max(size_claim_, m.size);
        break;
    }
  }

  if (pos.last_round_of_guess && flag_ && size_claim_ > 0) {
    Output out;
    out.count = size_claim_;
    out.max_value = max_value_;
    out.consensus_value = leader_value_;
    out.accepted_guess = pos.guess_k;
    decided_ = out;
    obs_phase_.label = "decided";
  }
}

std::size_t KloCommitteeProgram::MessageBits(const Message& m) {
  std::size_t bits = 2;  // tag
  bits += IdBits(m.leader) + ValueBits(m.leader_value) + ValueBits(m.max_value);
  switch (m.tag) {
    case Tag::kPoll:
      bits += 1 + (m.poll >= 0 ? IdBits(m.poll) : 0);
      break;
    case Tag::kInvite:
      bits += 1 + (m.invitee >= 0 ? IdBits(m.invitee) : 0);
      break;
    case Tag::kVerify:
      bits += 1 + (m.committee >= 0 ? IdBits(m.committee) : 0) + 1;
      break;
    case Tag::kSize:
      bits += util::VarintBits(static_cast<std::uint64_t>(m.size));
      break;
  }
  return bits;
}

}  // namespace sdn::algo
