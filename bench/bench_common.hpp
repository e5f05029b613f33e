// Shared harness pieces for the experiment binaries (DESIGN.md §5).
//
// Every bench prints the table/figure rows to stdout and mirrors them to a
// CSV under results/ named after the experiment, so EXPERIMENTS.md numbers
// regenerate with `for b in build/bench/*; do $b; done`.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "obs/manifest.hpp"
#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace sdn::bench {

/// Process-wide run manifest: environment provenance collected once, plus
/// whatever keys the bench adds (experiment name, trials, flags). Stamped
/// into every results/*.csv as a `# key=value` comment header and into
/// trace exports.
inline obs::RunManifest& BenchManifest() {
  static obs::RunManifest manifest = obs::RunManifest::Collect();
  return manifest;
}

/// The shared --trace flag: one representative run per bench records round
/// events into a flight recorder, exported at exit as a Chrome trace-event
/// JSON (Perfetto/chrome://tracing-loadable) — or JSONL when the path ends
/// in ".jsonl". Attach() hands out the recorder exactly once (the first
/// cell of the sweep), so parallel trials never interleave lanes; RunTrials
/// additionally restricts it to the first seed.
class BenchTracer {
 public:
  explicit BenchTracer(util::Flags& flags)
      : path_(flags.GetString(
            "trace", "",
            "write a Chrome trace (or .jsonl) of one representative run")) {
    if (!path_.empty()) recorder_.emplace();
  }

  /// Recorder for the run to trace; null on every call after the first
  /// (and always when --trace is off).
  obs::FlightRecorder* Attach() {
    if (!recorder_.has_value() || attached_) return nullptr;
    attached_ = true;
    return &*recorder_;
  }

  [[nodiscard]] bool active() const { return recorder_.has_value(); }

  /// Exports the recorded events (no-op when --trace is off or nothing was
  /// attached).
  void Write() const {
    if (!recorder_.has_value() || !attached_) return;
    const obs::RunManifest& manifest = BenchManifest();
    const bool jsonl = path_.size() >= 6 &&
                       path_.compare(path_.size() - 6, 6, ".jsonl") == 0;
    const bool ok = jsonl ? recorder_->WriteJsonl(path_, &manifest)
                          : recorder_->WriteChromeTrace(path_, &manifest);
    if (ok) {
      std::cout << "(trace: " << path_ << ", " << recorder_->total_emitted()
                << " events, " << recorder_->dropped() << " dropped)\n";
    } else {
      std::cout << "(trace: cannot write " << path_ << ")\n";
    }
  }

 private:
  std::string path_;
  std::optional<obs::FlightRecorder> recorder_;
  bool attached_ = false;
};

/// The shared --metrics-out flag: OpenMetrics/Prometheus text exposition of
/// a run's metrics registry (plus memory gauges and anomaly records).
/// Sweep-driven benches write one final snapshot of a representative run
/// (ExportRepresentative below); harnesses that drive Step() themselves call
/// Tick(round, ...) and the file is rewritten every --metrics-interval
/// rounds — a one-pass truncating write, so a concurrent scraper sees at
/// worst a short read, never an interleaved one.
class MetricsExporter {
 public:
  explicit MetricsExporter(util::Flags& flags)
      : path_(flags.GetString(
            "metrics-out", "",
            "write an OpenMetrics text exposition of one representative run")),
        interval_(flags.GetInt(
            "metrics-interval", 64,
            "rounds between exposition rewrites (step-driven harnesses)")) {}

  [[nodiscard]] bool active() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Converts and writes one stats snapshot; announces the file once.
  void Write(const net::RunStats& stats) {
    if (path_.empty()) return;
    std::vector<obs::MemorySeries> memory;
    memory.reserve(stats.memory.size());
    for (const net::MemoryUse& m : stats.memory) {
      memory.push_back({m.subsystem, m.current_bytes, m.peak_bytes});
    }
    const obs::InfoSeries info[] = {stats.CheckerInfo()};
    if (obs::WriteOpenMetrics(path_, stats.metrics, memory, stats.anomalies,
                              info)) {
      if (!announced_) {
        std::cout << "(metrics: " << path_ << ")\n";
        announced_ = true;
      }
    } else {
      std::cout << "(metrics: cannot write " << path_ << ")\n";
      path_.clear();  // don't retry every tick
    }
  }

  /// Periodic rewrite for step-driven loops: every interval_ rounds, pull a
  /// fresh snapshot from `stats_fn` and Write it. Quiet between ticks.
  template <typename StatsFn>
  void Tick(std::int64_t round, StatsFn&& stats_fn) {
    if (path_.empty() || interval_ <= 0 || round % interval_ != 0) return;
    Write(stats_fn());
  }

 private:
  std::string path_;
  std::int64_t interval_;
  bool announced_ = false;
};

/// One representative run for the exposition file: the sweep's own trials
/// often run without metrics collection, so rerun the (algorithm, config)
/// cell once with the full observability plane on and export that snapshot.
inline void ExportRepresentative(MetricsExporter& exporter, Algorithm algorithm,
                                 RunConfig config) {
  if (!exporter.active()) return;
  config.seed = 1;
  config.collect_metrics = true;
  config.validate_tinterval = true;
  exporter.Write(RunAlgorithm(algorithm, config).stats);
}

/// Call after all flags were read (so they are registered): prints usage and
/// returns true when --help was passed.
inline bool HelpRequested(util::Flags& flags, const std::string& program) {
  if (!flags.Has("help")) return false;
  std::cout << flags.Usage(program);
  return true;
}

/// The shared --threads flag: total thread budget for RunTrials
/// (outer trials × inner engine lanes); 0 = hardware concurrency.
inline int ThreadsFlag(util::Flags& flags) {
  return static_cast<int>(flags.GetInt(
      "threads", 0,
      "total thread budget (outer trials x engine lanes); 0 = hardware"));
}

/// Seeds 1..trials (deterministic across runs).
inline std::vector<std::uint64_t> Seeds(int trials, std::uint64_t base = 0) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(trials));
  for (int i = 1; i <= trials; ++i) {
    seeds.push_back(base * 1000 + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

struct Aggregate {
  util::Summary rounds;
  util::Summary flood_d;
  util::Summary bits_per_msg;
  /// Log2-bucketed distribution of per-trial rounds (obs registry
  /// instrument): tail quantiles for sweeps where the mean hides stragglers.
  obs::Histogram rounds_hist;
  double worst_count_rel_error = 0.0;
  int failures = 0;   // trials that were not Ok()
  int truncated = 0;  // trials cut off by max_rounds (hit_max_rounds)
  int trials = 0;
};

inline Aggregate AggregateResults(const std::vector<RunResult>& results) {
  Aggregate agg;
  std::vector<double> rounds;
  std::vector<double> flood;
  std::vector<double> bits;
  for (const RunResult& r : results) {
    ++agg.trials;
    rounds.push_back(static_cast<double>(r.stats.rounds));
    agg.rounds_hist.Observe(r.stats.rounds);
    flood.push_back(static_cast<double>(r.stats.flooding.max_rounds));
    bits.push_back(r.stats.AvgBitsPerMessage());
    if (!r.Ok()) ++agg.failures;
    if (r.stats.hit_max_rounds) ++agg.truncated;
    if (r.count_max_rel_error.has_value()) {
      agg.worst_count_rel_error =
          std::max(agg.worst_count_rel_error, *r.count_max_rel_error);
    }
  }
  agg.rounds = util::Summarize(rounds);
  agg.flood_d = util::Summarize(flood);
  agg.bits_per_msg = util::Summarize(bits);
  return agg;
}

/// A round-complexity table cell. A run cut off by max_rounds did not
/// converge — its `rounds` is the cap, not a complexity measurement, and
/// printing it would masquerade as (usually fast-looking) convergence. Any
/// truncated trial therefore poisons the cell.
inline std::string RoundsCell(const Aggregate& agg) {
  if (agg.truncated > 0) return "(truncated)";
  return util::Table::Num(agg.rounds.median, 0) +
         (agg.failures > 0 ? "!" : "");
}

/// Median rounds as a data point for fits; NaN-free sentinel 0.0 (excluded
/// by the log-log slope fit) when any trial was truncated.
inline double RoundsPoint(const Aggregate& agg) {
  return agg.truncated > 0 ? 0.0 : agg.rounds.median;
}

/// Runs `trials` seeded trials of `algorithm` on `config` and aggregates.
/// `threads` is the total budget passed through to RunTrials (0 = hardware).
inline Aggregate Measure(Algorithm algorithm, RunConfig config, int trials,
                         int threads = 0) {
  config.validate_tinterval = true;  // certification rides every recording
  return AggregateResults(RunTrials(algorithm, config, Seeds(trials), threads));
}

inline void PrintBanner(const std::string& experiment,
                        const std::string& claim) {
  std::cout << "==== " << experiment << " ====\n" << claim << "\n\n";
}

/// Prints the table and mirrors it to results/<csv_name> (the directory is
/// created next to the cwd; generated CSVs stay out of the repo root and are
/// gitignored). The CSV opens with the run manifest as `# key=value`
/// comment lines, so every results file records what produced it.
inline void Finish(const util::Table& table, const std::string& csv_name) {
  table.Print(std::cout);
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string path = "results/" + csv_name;
  table.WriteCsv(path, BenchManifest().CommentLines());
  std::cout << "\n(csv: " << path << ")\n\n";
}

}  // namespace sdn::bench
