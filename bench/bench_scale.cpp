// Scale benchmark: million-node rounds (docs/PERF.md "Scale").
//
// Sweeps n from 2^10 to 2^20 on the reference workload shape (hjswy,
// spine-gnp, T=2, probes off) and records, per n: rounds/sec, process peak
// RSS, and the MemoryBudget byte accounting (sketch pool, outbox, programs,
// topology) that makes "bytes/node" an auditable number instead of a
// ballpark. Large-n runs are round-capped — the figure is steady-state
// engine throughput, not time-to-decide (which the T1 sweep owns); capped
// rows are marked `"decided": false` so nobody reads them as convergence.
//
// Output: results/scale.csv (human table mirror), BENCH_scale.json (the
// full record), and the same sweep merged into BENCH_engine.json under
// "scale_sweep" when that file exists (bench_a9_micro writes it first in
// the CI recording recipe). --smoke runs the single n=65536 row the CI
// scale-smoke job gates on (RSS ceiling + rounds/sec floor).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/check.hpp"

namespace sdn {
namespace {

struct ScaleRow {
  graph::NodeId n = 0;
  net::RunStats stats;
  std::int64_t peak_rss_bytes = 0;
  std::int64_t accounted_peak_bytes = 0;  // MemoryBudget::TotalPeakBytes
  std::vector<net::MemoryUse> memory;
};

/// Kernel-reported peak resident set of this process (monotone within a
/// process, so an ascending-n sweep attributes each reading to the largest
/// n so far — exactly the row it is recorded against).
std::int64_t PeakRssBytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;  // KB on Linux
}

/// Round cap for the throughput measurement: enough rounds to be past
/// start-up at every n, small enough that the 2^20 row finishes in minutes
/// on one core. Small n runs long
/// enough to be timer-stable; decided runs end early on their own.
std::int64_t RoundCap(graph::NodeId n, std::int64_t override_cap) {
  if (override_cap > 0) return override_cap;
  return std::clamp<std::int64_t>((std::int64_t{1} << 21) / n, 16, 256);
}

ScaleRow MeasureOne(graph::NodeId n, std::int64_t rounds_cap, int threads,
                    bool collect_metrics) {
  util::MemoryBudget budget;
  RunConfig config;
  config.n = n;
  config.T = 2;
  config.seed = 42;
  config.adversary.kind = "spine-gnp";
  config.flood_probes = 0;
  config.max_rounds = rounds_cap;
  config.threads = threads;
  config.memory_budget = &budget;
  config.collect_metrics = collect_metrics;  // anomaly plane rides along
  const RunResult result = RunAlgorithm(Algorithm::kHjswyEstimate, config);

  ScaleRow row;
  row.n = n;
  row.stats = result.stats;
  row.peak_rss_bytes = PeakRssBytes();
  row.accounted_peak_bytes = budget.TotalPeakBytes();
  for (const util::MemoryBudget::Entry& e : budget.Snapshot()) {
    row.memory.push_back({e.subsystem, e.current_bytes, e.peak_bytes});
  }
  return row;
}

std::string SweepJson(const std::vector<ScaleRow>& rows) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& row = rows[i];
    const double rps = row.stats.timings.RoundsPerSec(row.stats.rounds);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"n\": %lld, \"rounds\": %lld, \"decided\": %s, "
        "\"rounds_per_sec\": %.2f, \"edges_per_sec\": %.0f, "
        "\"messages_delivered\": %lld,\n     \"peak_rss_bytes\": %lld, "
        "\"accounted_peak_bytes\": %lld, \"bytes_per_node\": %.1f",
        static_cast<long long>(row.n),
        static_cast<long long>(row.stats.rounds),
        row.stats.hit_max_rounds ? "false" : "true", rps,
        row.stats.timings.EdgesPerSec(row.stats.edges_processed),
        static_cast<long long>(row.stats.messages_delivered),
        static_cast<long long>(row.peak_rss_bytes),
        static_cast<long long>(row.accounted_peak_bytes),
        static_cast<double>(row.accounted_peak_bytes) /
            static_cast<double>(row.n));
    out += buf;
    out += ",\n     \"subsystem_peak_bytes\": {";
    for (std::size_t m = 0; m < row.memory.size(); ++m) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %lld",
                    m == 0 ? "" : ", ", row.memory[m].subsystem.c_str(),
                    static_cast<long long>(row.memory[m].peak_bytes));
      out += buf;
    }
    out += "}}";
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]";
  return out;
}

/// Splices `sweep_json` into an existing BENCH_engine.json as a trailing
/// "scale_sweep" key (replacing a previous one — it is always spliced
/// last, so everything from its leading comma to the closing brace is the
/// old sweep). Returns false when the file is absent or unparseable; the
/// standalone BENCH_scale.json is the authoritative record either way.
bool MergeIntoEngineJson(const std::string& sweep_json) {
  std::ifstream in("BENCH_engine.json");
  if (!in) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::size_t cut = text.find(",\n  \"scale_sweep\"");
  if (cut == std::string::npos) {
    cut = text.rfind('}');
    if (cut == std::string::npos) return false;
  }
  text.erase(cut);
  while (!text.empty() &&
         (text.back() == '\n' || text.back() == ' ' || text.back() == '\r')) {
    text.pop_back();
  }
  std::ofstream out("BENCH_engine.json");
  if (!out) return false;
  out << text << ",\n  \"scale_sweep\": " << sweep_json << "\n}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const bool smoke = flags.GetBool(
      "smoke", false, "run only the n=65536 row the CI scale-smoke job gates");
  const auto max_exp = flags.GetInt(
      "max-exp", 20, "largest n as a power of two (sweep is 2^10..2^max-exp)");
  const auto rounds_override = flags.GetInt(
      "rounds", 0, "round cap per run; 0 = auto (16..256, shrinking with n)");
  const int threads = static_cast<int>(flags.GetInt(
      "threads", 1, "EngineOptions::threads (1 = the serial reference)"));
  // CI's scale-smoke job asserts the exposition's sdn_memory_bytes series
  // against BENCH_scale.json, so --smoke records one by default.
  const std::string metrics_out = flags.GetString(
      "metrics-out", smoke ? "metrics_scale_smoke.txt" : "",
      "write an OpenMetrics exposition of the last measured row");
  if (bench::HelpRequested(flags, "bench_scale")) return 0;

  bench::PrintBanner(
      "scale",
      "Engine throughput and memory footprint vs n (hjswy spine-gnp T=2): "
      "rounds/sec, peak RSS, and audited bytes/node up to n=2^20.");

  std::vector<graph::NodeId> sizes;
  if (smoke) {
    sizes.push_back(65536);
  } else {
    for (int e = 10; e <= max_exp; e += 2) {
      sizes.push_back(graph::NodeId{1} << e);
    }
  }

  std::vector<ScaleRow> rows;
  util::Table table({"n", "rounds", "rounds/s", "edges/s", "peak RSS MB",
                     "accounted MB", "bytes/node", "decided"});
  for (const graph::NodeId n : sizes) {
    const std::int64_t cap = RoundCap(n, rounds_override);
    std::printf("n=%lld (round cap %lld)...\n", static_cast<long long>(n),
                static_cast<long long>(cap));
    std::fflush(stdout);
    rows.push_back(MeasureOne(n, cap, threads, !metrics_out.empty()));
    const ScaleRow& row = rows.back();
    table.AddRow(
        {std::to_string(n), std::to_string(row.stats.rounds),
         util::Table::Num(row.stats.timings.RoundsPerSec(row.stats.rounds), 1),
         util::Table::Num(
             row.stats.timings.EdgesPerSec(row.stats.edges_processed), 0),
         util::Table::Num(
             static_cast<double>(row.peak_rss_bytes) / (1024.0 * 1024.0), 1),
         util::Table::Num(static_cast<double>(row.accounted_peak_bytes) /
                              (1024.0 * 1024.0),
                          1),
         util::Table::Num(static_cast<double>(row.accounted_peak_bytes) /
                              static_cast<double>(row.n),
                          1),
         row.stats.hit_max_rounds ? "no (capped)" : "yes"});
  }
  bench::Finish(table, "scale.csv");

  obs::RunManifest& manifest = bench::BenchManifest();
  manifest.Set("experiment", "scale");
  manifest.Set("workload", "hjswy spine-gnp T=2 seed=42 probes=0");
  const std::string sweep_json = SweepJson(rows);
  std::FILE* f = std::fopen("BENCH_scale.json", "w");
  SDN_CHECK_MSG(f != nullptr, "BENCH_scale.json: cannot open for writing");
  std::fprintf(f,
               "{\n  \"manifest\": %s,\n"
               "  \"workload\": {\"algorithm\": \"hjswy\", \"adversary\": "
               "\"spine-gnp\", \"T\": 2, \"seed\": 42, \"flood_probes\": 0, "
               "\"threads\": %d,\n               \"selection\": \"single run "
               "per n, round-capped; rounds_per_sec is steady-state engine "
               "throughput, not time-to-decide\"},\n"
               "  \"scale_sweep\": %s\n}\n",
               manifest.ToJson().c_str(), threads, sweep_json.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_scale.json\n");
  if (!metrics_out.empty() && !rows.empty()) {
    const net::RunStats& last = rows.back().stats;
    std::vector<obs::MemorySeries> series;
    series.reserve(last.memory.size());
    for (const net::MemoryUse& m : last.memory) {
      series.push_back({m.subsystem, m.current_bytes, m.peak_bytes});
    }
    if (obs::WriteOpenMetrics(metrics_out, last.metrics, series,
                              last.anomalies)) {
      std::printf("wrote %s\n", metrics_out.c_str());
    } else {
      std::printf("cannot write %s\n", metrics_out.c_str());
    }
  }
  if (MergeIntoEngineJson(sweep_json)) {
    std::printf("merged scale_sweep into BENCH_engine.json\n");
  } else {
    std::printf(
        "BENCH_engine.json absent or unreadable; scale_sweep not merged "
        "(run bench_a9_micro first to create it)\n");
  }
  return 0;
}

}  // namespace
}  // namespace sdn

int main(int argc, char** argv) { return sdn::Main(argc, argv); }
