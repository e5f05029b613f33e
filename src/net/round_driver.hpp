// The program-independent half of the round engine.
//
// net::Engine<A> (net/engine.hpp) keeps only what depends on the node
// program type: the nodes, the outbox and the send/deliver shard loops.
// Everything else a round does is the same for every program and lives
// here, compiled once:
//
//   * topology: the one live DynGraph, built once per round on the driving
//     thread, and the churn-driven choice between the adversary's direct
//     round list and its delta;
//   * certification: the composition-vs-general checker choice (with its
//     RunStats::checker_path reason; a function of the adversary alone),
//     the async certification lane, fail-fast and the round-tagged
//     CertSample each certification step publishes for the sinks;
//   * flooding probes, memory gauges and the EngineTimings partition;
//   * the flight recorder, metrics registry and anomaly plane, the
//     SDN_FAULT_* deliver stall, and the non-program half of stats().
//
// The engine drives one round as BeginRound (topology, validate, probes),
// its send phase, EndSend, BeginDeliver, its deliver phase, EndDeliver and
// EndRound; Observe then feeds the sinks after the round's final clock
// read. docs/PERF.md ("Pipelining") describes the certification lane.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "graph/delta.hpp"
#include "net/adversary.hpp"
#include "net/bandwidth.hpp"
#include "net/flooding.hpp"
#include "net/metrics.hpp"
#include "net/program.hpp"
#include "net/trace.hpp"
#include "obs/anomaly.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::graph {
class TIntervalChecker;
}  // namespace sdn::graph

namespace sdn::net {

struct EngineOptions {
  std::int64_t max_rounds = 2'000'000;
  BandwidthPolicy bandwidth = BandwidthPolicy::Unbounded();
  /// Verify the adversary's T-interval promise while running. When off, no
  /// checker is even constructed and RunStats::tinterval_validated is false
  /// (tinterval_ok is then vacuous, not a verified promise).
  bool validate_tinterval = true;
  /// Stop the run at the first T-interval violation: the engine records
  /// the violating window in RunStats::tinterval_first_bad_window, marks
  /// the run finished and throws CheckError from Step() — same shape as a
  /// bandwidth violation. Off by default: the checker keeps streaming and
  /// the verdict lands in RunStats at the end.
  bool fail_fast_on_tinterval = false;
  /// Number of concurrent flooding probes (node 0 plus random sources) used
  /// to measure d alongside the run. 0 disables measurement. Probe start
  /// rounds are staggered: when a probe completes at round c, its slot
  /// relaunches from a fresh random source at round 2c, so d is sampled at
  /// geometrically spaced start rounds across the whole run (DESIGN.md §1
  /// defines d as a max over sampled start rounds — measuring only from
  /// round 1 underestimates d on adversaries that degrade over time).
  int flood_probes = 4;
  std::uint64_t probe_seed = 0x5eedULL;
  /// Engine-internal parallelism for the send/deliver phases: 0 = hardware
  /// concurrency, 1 = strictly serial, k = up to k lanes of the shared
  /// work-stealing pool. Results are bit-identical at any setting (only
  /// RunStats::timings, which measure wall clock, differ), so this is a
  /// pure throughput knob. Small n runs serial regardless (sharding floor).
  int threads = 0;
  /// Run the streaming T-interval checker on a bounded auxiliary
  /// certification lane instead of the round's critical path. The lane
  /// consumes owned copies (delta, or composition claim + round edges), so
  /// the topology may mutate freely. The lane is drained when the run
  /// finishes (after the last round's final clock read, before its sinks
  /// run) and by stats() before any verdict is read, so a checker error
  /// (e.g. a lying composition) surfaces from the final Step(), or from a
  /// mid-run stats(), instead of mid-round. Engages only when threads > 1
  /// and without fail_fast_on_tinterval (fail-fast keeps the synchronous
  /// checker so the abort round matches the serial engine exactly); a
  /// flight recorder or the anomaly plane reads the CertSample each lane
  /// task publishes. RunStats is bit-identical on or off.
  bool async_certification = true;
  /// When set, every round's topology is streamed into this delta-encoded
  /// v2 trace writer (net/trace.hpp) — recording without retaining the
  /// graph sequence in memory. Must outlive the engine; the engine does not
  /// Close() it.
  TraceRecorder* record_trace = nullptr;
  /// Flight recorder for round events (phase spans, algorithm-phase
  /// transitions, probe lifecycle, sketch merges, checker windows,
  /// bandwidth high-water marks). Null = the sink is off and every
  /// emission site reduces to one predicted branch — the zero-overhead
  /// default. Must outlive the engine. Events are emitted outside the
  /// timed phase windows and RunStats stays bit-identical with the
  /// recorder attached or not (test_determinism pins it).
  obs::FlightRecorder* recorder = nullptr;
  /// Collect per-round histograms (edges, deliveries, phase latencies)
  /// into a metrics registry snapshotted as RunStats::metrics. Off by
  /// default; like the recorder, off costs one branch per round.
  bool collect_metrics = false;
  /// Always-on anomaly plane: feed every round's phase spans, aux-lane
  /// drain waits, memory gauges and certification state through
  /// obs::AnomalyEngine (rolling per-phase histograms + five declarative
  /// rules). Fired records land in RunStats::anomalies; when a flight
  /// recorder is attached each firing also dumps a bounded
  /// `anomaly-<round>-<rule>.jsonl` snapshot. Engages only together with
  /// collect_metrics (the plane lives behind the same registry gate) and,
  /// like every sink, runs after the round's final clock read — the
  /// deterministic core of RunStats is bit-identical on or off.
  bool anomaly = true;
  obs::AnomalyOptions anomaly_options{};
  /// Byte-accounting sink for the engine's deterministic allocations
  /// (outbox slots, program array, live topology). Null = the engine uses
  /// an internal budget, so RunStats::memory is populated either way; pass
  /// one to aggregate engine charges with caller-side subsystems (sketch
  /// pool, trace stream) under a single budget. Must outlive the engine.
  /// Only size-deterministic subsystems are charged; the per-shard gather
  /// scratch is not.
  util::MemoryBudget* memory_budget = nullptr;
};

class RoundDriver {
 public:
  /// `view` is what the adversary sees of the nodes (the engine); both
  /// references must outlive the driver.
  RoundDriver(Adversary& adversary, const AdversaryView& view,
              const EngineOptions& options);
  ~RoundDriver();
  // Lane tasks hold `this`.
  RoundDriver(const RoundDriver&) = delete;
  RoundDriver& operator=(const RoundDriver&) = delete;

  /// One-time set-up at the first Step: checker, topology, probes, memory
  /// gauges, sinks and the shard geometry.
  void Start();
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool finished() const { return finished_; }
  /// Ends the run before any round (every node decided at construction).
  void Finish() { finished_ = true; }

  /// Topology, validate and probe windows of the next round; returns its
  /// graph. Throws CheckError on a fail-fast T-interval violation.
  const graph::Graph& BeginRound();
  /// Closes the send window.
  void EndSend() { t_[4] = Clock::now(); }
  /// Fails the run with CheckError if the engine's send merge recorded a
  /// RunStats::bandwidth_violation; otherwise opens the deliver window.
  void BeginDeliver();
  /// Closes the deliver window.
  void EndDeliver() { t_[6] = Clock::now(); }
  /// Books the round: rounds, run end, timing partition (final clock read).
  /// When the run ends here, joins the certification lane after that read
  /// (rethrowing any checker error), so Observe sees the last round's
  /// CertSample.
  void EndRound(bool all_decided);
  /// Feeds the recorder, registry and anomaly plane after the final clock
  /// read. `phase` is the program's phase sample (label and index of node
  /// 0, work summed over nodes) when the program is observable and a
  /// recorder is attached.
  void Observe(std::int64_t delivered,
               const std::optional<ProgramPhase>& phase);

  /// The non-program half of Engine::stats(); drains the certification
  /// lane first (the rendezvous for a mid-run snapshot). `algo_work` is
  /// mirrored into the registry when present.
  [[nodiscard]] RunStats Snapshot(std::optional<std::int64_t> algo_work) const;

  /// Runs fn(shard, begin, end) over all shards — on the pool when parallel,
  /// inline (same shard boundaries, ascending order) when serial.
  void ForShards(const util::ThreadPool::RangeFn& fn);
  [[nodiscard]] std::size_t shards() const {
    return static_cast<std::size_t>(shards_);
  }

  /// Charges the engine's outbox and program arrays to the memory budget.
  void ChargeEngine(std::int64_t outbox_bytes, std::int64_t programs_bytes);

  /// Mutable run statistics; the engine merges its per-shard accumulators
  /// and decisions into them.
  [[nodiscard]] RunStats& stats() { return stats_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] std::int64_t round() const { return round_; }
  [[nodiscard]] const graph::Graph& topology() const { return topo_.View(); }
  /// A flight recorder is attached (the engine samples ProgramPhase only
  /// then).
  [[nodiscard]] bool recording() const { return rec_ != nullptr; }
  [[nodiscard]] bool collecting_metrics() const {
    return registry_ != nullptr;
  }
  [[nodiscard]] std::int64_t topology_direct_rounds() const {
    return topo_direct_rounds_;
  }
  [[nodiscard]] std::int64_t topology_delta_rounds() const {
    return topo_delta_rounds_;
  }
  [[nodiscard]] const util::MemoryBudget& memory_budget() const {
    return options_.memory_budget != nullptr ? *options_.memory_budget
                                             : owned_budget_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// The checker's state after one certification step, published by that
  /// step (synchronous, or on the cert lane) and read by the sinks in
  /// Observe. round 0 = no step has published yet.
  struct CertSample {
    std::int64_t round = 0;
    bool ok = true;
    std::int64_t certified_T = -1;
    std::int64_t first_bad_window = -1;
    std::int64_t stable_edge_count = -1;  // -1 on the composition path
  };

  [[nodiscard]] bool WantDirectTopology() const;
  void UpdateTopologyChurn(bool has_delta);
  void Certify(const graph::Graph& g);
  void SubmitCert(util::UniqueTask task);
  void PublishCertSample(std::int64_t r);
  [[nodiscard]] CertSample LatestCertSample() const;
  void AccumulateTimings();
  [[noreturn]] void FailBandwidth();
  void EmitPhaseSpans(bool with_deliver);
  void ObserveRecorder(std::int64_t delivered,
                       const std::optional<ProgramPhase>& phase,
                       const CertSample& cert);
  [[nodiscard]] graph::NodeId RandomSource();
  void StepProbes(const graph::Graph& g);
  void RecordProbeCompletion(std::size_t slot, const FloodProbe& p);

  Adversary& adversary_;
  const AdversaryView& view_;
  EngineOptions options_;
  graph::NodeId n_ = 0;
  util::Rng probe_rng_;

  // Run state (Start).
  bool started_ = false;
  bool finished_ = false;
  std::int64_t round_ = 0;
  RunStats stats_;
  /// This round's clock reads: topology t0..t1, validate t1..t2, probe
  /// t2..t3, send t3..t4, deliver t5..t6, final read t7.
  std::array<Clock::time_point, 8> t_{};
  std::unique_ptr<graph::TIntervalChecker> checker_;
  std::vector<FloodProbe> probes_;
  std::vector<char> probe_started_;  // parallel to probes_
  std::int64_t probes_spawned_ = 0;
  std::int64_t probes_completed_ = 0;
  std::int64_t probe_max_rounds_ = -1;
  double probe_total_rounds_ = 0.0;
  bool need_delta_ = false;       // a checker or trace consumes deltas
  bool use_composition_ = false;  // checker rides the adversary's
                                  // composition claim — no delta needed
  graph::DynGraph topo_{0};       // the one live topology
  graph::TopologyDelta delta_;    // reused round-over-round delta buffer

  // Churn-adaptive topology sub-path state (see kChurnHigh/kChurnLow).
  bool topo_direct_supported_ = true;  // adversary has RoundEdgesInto
  bool topo_use_direct_ = false;       // churn-hysteresis preference
  bool churn_seeded_ = false;
  double churn_ewma_ = 0.0;
  std::int64_t topo_direct_rounds_ = 0;
  std::int64_t topo_delta_rounds_ = 0;

  // Parallel geometry and the certification-lane gate (Start).
  util::ThreadPool* pool_ = nullptr;
  int lanes_ = 1;
  std::int64_t shards_ = 1;
  bool async_cert_ = false;

  /// Lane-side certification wall clock, surfaced as
  /// EngineTimings::aux_validate_ns at the Snapshot rendezvous.
  std::int64_t cert_ns_ = 0;
  /// Latest CertSample; written by the certification step's thread.
  mutable std::mutex cert_mu_;
  CertSample cert_sample_;

  // Memory accounting (Start): budget_ points at the caller's MemoryBudget
  // or the owned fallback; gauge pointers are resolved once and stable.
  util::MemoryBudget owned_budget_;
  util::MemoryBudget* budget_ = nullptr;
  util::MemoryGauge* mem_outbox_ = nullptr;
  util::MemoryGauge* mem_programs_ = nullptr;
  util::MemoryGauge* mem_topology_ = nullptr;
  util::MemoryGauge* mem_topology_scratch_ = nullptr;
  util::MemoryGauge* mem_adversary_ = nullptr;
  util::MemoryGauge* mem_checker_ = nullptr;

  // Observability sinks (Start): all null/off by default. The recorder
  // pointer gate is the whole off-switch — no event code runs without it.
  // Emission happens outside the timed windows, and nothing here feeds
  // back into the run, so RunStats is bit-identical either way.
  obs::FlightRecorder* rec_ = nullptr;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  obs::Histogram* hist_round_edges_ = nullptr;
  obs::Histogram* hist_round_deliveries_ = nullptr;
  obs::Histogram* hist_round_send_ns_ = nullptr;
  obs::Histogram* hist_round_deliver_ns_ = nullptr;
  obs::Histogram* hist_round_total_ns_ = nullptr;
  /// Anomaly plane (EngineOptions::anomaly, behind the registry gate).
  std::unique_ptr<obs::AnomalyEngine> anomaly_;
  /// This round's wait on certification-lane backpressure (anomaly signal).
  std::int64_t aux_wait_ns_round_ = 0;
  /// Fault hook: the round whose deliver window SDN_FAULT_DELIVER_SLEEP_MS
  /// stalls (SDN_FAULT_DELIVER_ROUND, read in Start).
  std::int64_t fault_round_ = 1;
  const char* obs_algo_label_ = nullptr;  // last emitted algo-phase label
  std::int64_t obs_algo_index_ = -1;
  std::int64_t obs_merges_total_ = 0;
  std::int64_t obs_stable_edges_ = -1;  // last emitted checker state
  bool obs_checker_ok_ = true;
  std::int64_t obs_cert_ = -1;          // last emitted certified-T
  std::int64_t obs_hw_bits_ = 0;  // last emitted bandwidth high water

  // The certification lane — declared last so its destructor (which joins
  // any in-flight task) runs before the members its tasks touch (checker_,
  // the CertSample) are destroyed. Mutable because const Snapshot() is a
  // rendezvous.
  mutable util::AuxLane cert_lane_;
};

}  // namespace sdn::net
