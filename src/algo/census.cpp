#include "algo/census.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace sdn::algo {

namespace {

constexpr std::uint64_t kHashMask = (1ULL << 48) - 1;

}  // namespace

CensusProgram::CensusProgram(NodeId id, Value input, CensusOptions options)
    : options_(options),
      id_(id),
      agg_min_id_(id),
      agg_min_value_(input),
      agg_max_value_(input) {
  SDN_CHECK(id >= 0);
  SDN_CHECK(options_.pipeline_T >= 1);
  SDN_CHECK(options_.slack > 0.0);
  census_.Insert(id);
}

std::int64_t CensusProgram::band_size() const {
  return std::max<std::int64_t>(1, (options_.pipeline_T + 1) / 2);
}

std::int64_t CensusProgram::StageLength(std::int64_t k) const {
  const auto T = static_cast<std::int64_t>(options_.pipeline_T);
  const auto raw = static_cast<std::int64_t>(
      options_.slack * static_cast<double>(2 * k + 4 * T) + 0.999999);
  // Round up to a multiple of T so windows never straddle stage boundaries.
  return ((raw + T - 1) / T) * T;
}

CensusProgram::Position CensusProgram::Locate(Round r) const {
  SDN_CHECK(r >= 1);
  std::int64_t offset = r - 1;
  std::int64_t k = 1;
  while (true) {
    const std::int64_t B = band_size();
    const std::int64_t stages = (k + B - 1) / B;
    const std::int64_t stage_len = StageLength(k);
    const std::int64_t dissemination = stages * stage_len;
    const std::int64_t verification = 2 * k + 2;
    const std::int64_t total = dissemination + verification;
    if (offset < total) {
      Position pos;
      pos.guess_k = k;
      if (offset < dissemination) {
        pos.stage = offset / stage_len;
        pos.window = offset / options_.pipeline_T;
      } else {
        pos.verifying = true;
        pos.verify_round = offset - dissemination;
        pos.last_round_of_guess = (offset == total - 1);
      }
      return pos;
    }
    offset -= total;
    SDN_CHECK_MSG(k < (std::int64_t{1} << 40), "census guess overflow");
    k *= 2;
  }
}

CensusProgram::Position CensusProgram::LocateFast(Round r) const {
  SDN_CHECK(r >= 1);
  const std::int64_t offset = r - 1;
  const std::int64_t B = band_size();
  const auto length_of = [this, B](std::int64_t k, std::int64_t& stage_len) {
    stage_len = StageLength(k);
    const std::int64_t stages = (k + B - 1) / B;
    return stages * stage_len + 2 * k + 2;
  };
  std::int64_t stage_len = cursor_.aux;
  if (cursor_.length == 0 || offset < cursor_.start) {
    // Uninitialized, or a backward query (tests): restart from guess 1.
    cursor_ = PhaseCursor{};
    cursor_.param = 1;
    cursor_.length = length_of(cursor_.param, stage_len);
    cursor_.aux = stage_len;
  }
  while (offset >= cursor_.start + cursor_.length) {
    cursor_.start += cursor_.length;
    ++cursor_.phase;
    SDN_CHECK_MSG(cursor_.param < (std::int64_t{1} << 40),
                  "census guess overflow");
    cursor_.param *= 2;
    cursor_.length = length_of(cursor_.param, stage_len);
    cursor_.aux = stage_len;
  }
  const std::int64_t k = cursor_.param;
  stage_len = cursor_.aux;
  const std::int64_t in_phase = offset - cursor_.start;
  const std::int64_t dissemination = ((k + B - 1) / B) * stage_len;
  Position pos;
  pos.guess_k = k;
  if (in_phase < dissemination) {
    pos.stage = in_phase / stage_len;
    pos.window = in_phase / options_.pipeline_T;
  } else {
    pos.verifying = true;
    pos.verify_round = in_phase - dissemination;
    pos.last_round_of_guess = (in_phase == cursor_.length - 1);
  }
  return pos;
}

bool CensusProgram::OnSendInto(Round r, Message& m) {
  if (decided_.has_value()) return false;
  const Position pos = LocateFast(r);
  m = Message{};  // full overwrite: the outbox slot is reused across rounds

  if (pos.verifying) {
    if (verify_key_ != pos.guess_k) {
      verify_key_ = pos.guess_k;
      frozen_hash_ = census_.Hash() & kHashMask;
      flag_ = census_.size() <= pos.guess_k;
    }
    m.tag = Tag::kVerify;
    m.hash = frozen_hash_;
    m.flag = flag_;
    return true;
  }

  // Dissemination round: the per-window sent-set resets whenever the
  // (guess, window) pair advances.
  const std::pair<std::int64_t, std::int64_t> key{pos.guess_k, pos.window};
  if (key != window_key_) {
    window_key_ = key;
    sent_this_window_.clear();
  }

  m.tag = Tag::kToken;
  m.min_id = agg_min_id_;
  m.min_id_value = agg_min_value_;
  m.max_value = agg_max_value_;
  m.token = -1;

  const std::int64_t band_rank = pos.stage * band_size();
  if (band_rank < census_.size()) {
    NodeId candidate = census_.SelectKth(band_rank);
    while (candidate >= 0) {
      const bool sent = std::find(sent_this_window_.begin(),
                                  sent_this_window_.end(),
                                  candidate) != sent_this_window_.end();
      if (!sent) break;
      candidate = census_.NextAtLeast(candidate + 1);
    }
    if (candidate >= 0) {
      m.token = candidate;
      sent_this_window_.push_back(candidate);
    }
  }
  return true;
}

void CensusProgram::OnReceive(Round r, Inbox<Message> inbox) {
  if (decided_.has_value()) return;
  const Position pos = LocateFast(r);
  obs_phase_.label = pos.verifying ? "verify" : "disseminate";
  obs_phase_.index = pos.guess_k;

  if (pos.verifying) {
    SDN_CHECK_MSG(verify_key_ == pos.guess_k,
                  "verification state not initialized (engine must call "
                  "OnSendInto before OnReceive)");
    for (const Message& m : inbox) {
      if (m.tag != Tag::kVerify) continue;
      if (m.hash != frozen_hash_ || !m.flag) flag_ = false;
    }
    if (pos.last_round_of_guess && flag_) {
      CensusOutput out;
      out.count = census_.size();
      out.max_value = agg_max_value_;
      out.consensus_value = agg_min_value_;
      out.accepted_guess = pos.guess_k;
      decided_ = out;
      obs_phase_.label = "decided";
    }
    return;
  }

  for (const Message& m : inbox) {
    if (m.tag != Tag::kToken) continue;
    if (m.token >= 0 && !census_.Contains(m.token)) {
      census_.Insert(m.token);
      ++obs_phase_.work;
    }
    if (m.min_id < agg_min_id_) {
      agg_min_id_ = m.min_id;
      agg_min_value_ = m.min_id_value;
    }
    agg_max_value_ = std::max(agg_max_value_, m.max_value);
  }
}

std::size_t CensusProgram::MessageBits(const Message& m) {
  if (m.tag == Tag::kVerify) {
    return 2 + 48 + 1;
  }
  std::size_t bits = 2 + 1;  // tag + has-token flag
  if (m.token >= 0) bits += IdBits(m.token);
  bits += IdBits(m.min_id) + ValueBits(m.min_id_value) +
          ValueBits(m.max_value);
  return bits;
}

AlgoInfo CensusProgram::InfoFor(int pipeline_T) {
  std::ostringstream os;
  os << "klo-census(T=" << pipeline_T << ")";
  return {os.str(), /*randomized=*/false, /*needs_n=*/false,
          /*unbounded_msgs=*/false};
}

}  // namespace sdn::algo
