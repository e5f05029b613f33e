// OpenMetrics / Prometheus text exposition of the observability plane.
//
// Renders a MetricsSnapshot (plus memory-gauge series and anomaly records)
// to the standard text format, so a scraper — or the future `sdnd` service
// front end — consumes engine telemetry with zero engine changes. Benches
// write it with --metrics-out (bench_common.hpp), periodically for the
// harnesses that drive rounds themselves.
//
// Name/label scheme (docs/OBSERVABILITY.md "OpenMetrics exposition"):
//   - every series is prefixed `sdn_`; registry names pass through with
//     non-[a-zA-Z0-9_] characters mapped to '_'
//   - counters render as `sdn_<name>_total`
//   - gauges render as `sdn_<name>`
//   - histograms render as OpenMetrics summaries: `{quantile="0.5"|"0.95"}`
//     plus `_sum`/`_count` (the snapshot carries exactly those stats)
//   - memory gauges: `sdn_memory_bytes{subsystem="...",stat="current|peak"}`
//   - anomaly records: `sdn_anomaly_records{rule="..."}` (the registry's
//     `sdn_anomalies_total` counter rides through the snapshot as well)
//   - info series: `sdn_<name>_info{label="..."} 1` (e.g. the checker path
//     a run certified on, net::RunStats::CheckerInfo)
// The exposition ends with the `# EOF` terminator the format requires.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/anomaly.hpp"
#include "obs/registry.hpp"

namespace sdn::obs {

/// One memory-gauge series (mirrors net::MemoryUse without the net
/// dependency — callers copy the fields over).
struct MemorySeries {
  std::string subsystem;
  std::int64_t current_bytes = 0;
  std::int64_t peak_bytes = 0;
};

/// One OpenMetrics info series: constant 1, the facts carried as labels.
struct InfoSeries {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
};

/// `sdn_`-prefixed metric name with every invalid character mapped to '_'.
std::string OpenMetricsName(const std::string& name);

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot,
                              std::span<const MemorySeries> memory = {},
                              std::span<const AnomalyRecord> anomalies = {},
                              std::span<const InfoSeries> info = {});

/// False (and nothing written) if the file cannot be opened. The write goes
/// to `path` in one pass, so a scraper that reads between writes sees at
/// worst a truncated exposition, never an interleaved one.
bool WriteOpenMetrics(const std::string& path, const MetricsSnapshot& snapshot,
                      std::span<const MemorySeries> memory = {},
                      std::span<const AnomalyRecord> anomalies = {},
                      std::span<const InfoSeries> info = {});

}  // namespace sdn::obs
