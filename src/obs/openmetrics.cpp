#include "obs/openmetrics.hpp"

#include <array>
#include <fstream>

namespace sdn::obs {

namespace {

bool ValidNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Label-value escaping per the exposition format: backslash, double quote
/// and newline.
std::string EscapeLabel(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void Line(std::string& out, const std::string& series, std::int64_t value) {
  out += series;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

}  // namespace

std::string OpenMetricsName(const std::string& name) {
  std::string out = "sdn_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    out += ValidNameChar(c) ? c : '_';
  }
  return out;
}

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot,
                              std::span<const MemorySeries> memory,
                              std::span<const AnomalyRecord> anomalies,
                              std::span<const InfoSeries> info) {
  std::string out;
  out.reserve(4096);
  for (const MetricSample& s : snapshot.samples) {
    const std::string name = OpenMetricsName(s.name);
    switch (s.kind) {
      case MetricKind::kCounter:
        // The registry convention keeps `_total` out of instrument names;
        // the exposition convention requires it on counter samples.
        out += "# TYPE " + name + " counter\n";
        Line(out, name + "_total", s.value);
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + name + " gauge\n";
        Line(out, name, s.value);
        break;
      case MetricKind::kHistogram:
        // The snapshot carries count/sum/p50/p95, not the raw buckets —
        // exactly the shape of an exposition-format summary.
        out += "# TYPE " + name + " summary\n";
        Line(out, name + "{quantile=\"0.5\"}", s.p50);
        Line(out, name + "{quantile=\"0.95\"}", s.p95);
        Line(out, name + "_sum", s.sum);
        Line(out, name + "_count", s.count);
        break;
    }
  }
  if (!memory.empty()) {
    out += "# TYPE sdn_memory_bytes gauge\n";
    for (const MemorySeries& m : memory) {
      const std::string label = EscapeLabel(m.subsystem);
      Line(out,
           "sdn_memory_bytes{subsystem=\"" + label + "\",stat=\"current\"}",
           m.current_bytes);
      Line(out, "sdn_memory_bytes{subsystem=\"" + label + "\",stat=\"peak\"}",
           m.peak_bytes);
    }
  }
  if (!anomalies.empty()) {
    std::array<std::int64_t, kNumAnomalyRules> per_rule{};
    for (const AnomalyRecord& a : anomalies) {
      ++per_rule[static_cast<std::size_t>(a.rule)];
    }
    out += "# TYPE sdn_anomaly_records gauge\n";
    for (int r = 0; r < kNumAnomalyRules; ++r) {
      if (per_rule[static_cast<std::size_t>(r)] == 0) continue;
      Line(out,
           std::string("sdn_anomaly_records{rule=\"") +
               ToString(static_cast<AnomalyRule>(r)) + "\"}",
           per_rule[static_cast<std::size_t>(r)]);
    }
  }
  for (const InfoSeries& i : info) {
    const std::string name = OpenMetricsName(i.name);
    out += "# TYPE " + name + " info\n";
    std::string series = name + "_info{";
    for (std::size_t k = 0; k < i.labels.size(); ++k) {
      if (k > 0) series += ',';
      series += i.labels[k].first + "=\"" +
                EscapeLabel(i.labels[k].second) + "\"";
    }
    Line(out, series + "}", 1);
  }
  out += "# EOF\n";
  return out;
}

bool WriteOpenMetrics(const std::string& path, const MetricsSnapshot& snapshot,
                      std::span<const MemorySeries> memory,
                      std::span<const AnomalyRecord> anomalies,
                      std::span<const InfoSeries> info) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << RenderOpenMetrics(snapshot, memory, anomalies, info);
  return static_cast<bool>(os);
}

}  // namespace sdn::obs
