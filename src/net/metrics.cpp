#include "net/metrics.hpp"

#include <iomanip>
#include <sstream>

namespace sdn::net {

const char* ToString(CheckerPath path) {
  switch (path) {
    case CheckerPath::kOff:
      return "off";
    case CheckerPath::kComposition:
      return "composition";
    case CheckerPath::kGeneral:
      return "general";
  }
  return "?";
}

double EngineTimings::TotalSeconds() const {
  return static_cast<double>(total_ns) * 1e-9;
}

double EngineTimings::RoundsPerSec(std::int64_t rounds) const {
  if (total_ns <= 0) return 0.0;
  return static_cast<double>(rounds) / TotalSeconds();
}

double EngineTimings::EdgesPerSec(std::int64_t edges) const {
  if (total_ns <= 0) return 0.0;
  return static_cast<double>(edges) / TotalSeconds();
}

std::string EngineTimings::OneLine(std::int64_t rounds,
                                   std::int64_t edges) const {
  std::ostringstream os;
  const auto ms = [](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-6;
  };
  os << std::fixed << std::setprecision(2) << "total=" << ms(total_ns)
     << "ms (topology=" << ms(topology_ns) << " validate=" << ms(validate_ns)
     << " probe=" << ms(probe_ns) << " send=" << ms(send_ns)
     << " deliver=" << ms(deliver_ns) << " other=" << ms(other_ns) << ")";
  // Lane work hidden behind the critical path: outside the partition, so
  // printed beside it, and only when a lane ran.
  if (aux_topology_ns != 0) os << " aux_topology=" << ms(aux_topology_ns);
  if (aux_validate_ns != 0) os << " aux_validate=" << ms(aux_validate_ns);
  os << std::setprecision(0) << " rounds/s=" << RoundsPerSec(rounds)
     << " edges/s=" << EdgesPerSec(edges);
  return os.str();
}

double RunStats::AvgBitsPerMessage() const {
  if (messages_sent == 0) return 0.0;
  return static_cast<double>(total_message_bits) /
         static_cast<double>(messages_sent);
}

double RunStats::BitsPerNodeRound(std::int64_t num_nodes) const {
  if (num_nodes == 0 || rounds == 0) return 0.0;
  return static_cast<double>(total_message_bits) /
         (static_cast<double>(num_nodes) * static_cast<double>(rounds));
}

std::string RunStats::OneLine() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " decided=" << (all_decided ? "all" : "PARTIAL");
  if (hit_max_rounds) os << " TRUNCATED";
  if (bandwidth_violation.has_value()) {
    os << " BW-VIOLATION(node=" << bandwidth_violation->node
       << " round=" << bandwidth_violation->round
       << " bits=" << bandwidth_violation->bits << ")";
  }
  os << " msgs=" << messages_sent << " bits=" << total_message_bits
     << " d=" << flooding.max_rounds << " tinterval="
     << (!tinterval_validated ? "unvalidated"
                              : (tinterval_ok ? "ok" : "VIOLATED"));
  if (tinterval_validated) {
    os << " certT=" << certified_T;
    if (!tinterval_ok) {
      os << " firstBadWindow=" << tinterval_first_bad_window;
    }
  }
  os << " checker=" << ToString(checker_path) << "(" << checker_path_reason
     << ")";
  if (timings.total_ns > 0) {
    os << " rounds/s=" << static_cast<std::int64_t>(
        timings.RoundsPerSec(rounds));
  }
  if (const obs::MetricSample* s = metrics.Find("round_edges");
      s != nullptr && s->count > 0) {
    os << " edges/round=p50:" << s->p50 << "/p95:" << s->p95;
  }
  if (const obs::MetricSample* s = metrics.Find("round_deliveries");
      s != nullptr && s->count > 0) {
    os << " deliveries/round=p50:" << s->p50 << "/p95:" << s->p95;
  }
  if (!anomalies.empty()) os << " anomalies=" << anomalies.size();
  if (recorder_dropped > 0) os << " drops=" << recorder_dropped;
  return os.str();
}

obs::InfoSeries RunStats::CheckerInfo() const {
  return {"checker",
          {{"path", ToString(checker_path)}, {"reason", checker_path_reason}}};
}

}  // namespace sdn::net
