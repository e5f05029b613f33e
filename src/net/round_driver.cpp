#include "net/round_driver.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "graph/tinterval.hpp"
#include "util/check.hpp"

namespace sdn::net {
namespace {

/// Async-certification queue depth: the checker may lag the round loop by
/// at most this many rounds before Submit backpressures the producer.
constexpr std::size_t kCertQueueDepth = 4;

/// Churn-adaptive topology sub-path (with delta consumers): EWMA of
/// |delta| / |E| with a hysteresis band. Above kChurnHigh, in-place
/// patching (Apply walks O(|Δ| log E) split points plus the moved bytes,
/// and itself degrades to a full linear merge once |Δ| >= E/8) loses to
/// rebuilding from the full round list (CommitEdges: one swap plus an O(E)
/// adjacency refill), so the driver flips to RoundEdgesInto + one
/// DiffSorted for the delta consumers; below kChurnLow it flips back. The
/// band brackets Apply's own E/8 dense-merge crossover (docs/PERF.md
/// records the measurement). Round 1's delta is the full bootstrap graph
/// (churn ratio ~1 by construction) and is skipped as a bootstrap artifact.
constexpr double kChurnAlpha = 0.25;
constexpr double kChurnHigh = 0.15;
constexpr double kChurnLow = 0.08;

std::int64_t ElapsedNs(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

std::int64_t NsSince(std::chrono::steady_clock::time_point a) {
  return ElapsedNs(a, std::chrono::steady_clock::now());
}

}  // namespace

RoundDriver::RoundDriver(Adversary& adversary, const AdversaryView& view,
                         const EngineOptions& options)
    : adversary_(adversary),
      view_(view),
      options_(options),
      n_(adversary.num_nodes()),
      probe_rng_(options.probe_seed),
      cert_lane_(kCertQueueDepth) {
  SDN_CHECK(adversary_.interval() >= 1);
  SDN_CHECK(options_.max_rounds >= 1);
  SDN_CHECK(options_.threads >= 0);
}

RoundDriver::~RoundDriver() = default;

void RoundDriver::Start() {
  started_ = true;
  rec_ = options_.recorder;
  if (options_.collect_metrics) {
    registry_ = std::make_unique<obs::MetricsRegistry>();
    hist_round_edges_ = registry_->GetHistogram("round_edges");
    hist_round_deliveries_ = registry_->GetHistogram("round_deliveries");
    hist_round_send_ns_ =
        registry_->GetHistogram("round_send_ns", /*deterministic=*/false);
    hist_round_deliver_ns_ =
        registry_->GetHistogram("round_deliver_ns", /*deterministic=*/false);
    hist_round_total_ns_ =
        registry_->GetHistogram("round_total_ns", /*deterministic=*/false);
    if (options_.anomaly) {
      anomaly_ = std::make_unique<obs::AnomalyEngine>(
          options_.anomaly_options, registry_.get(), rec_);
    }
  }
  // Fault hook (see BeginDeliver): the faulted round is read once here, the
  // stall length only when that round's deliver window opens.
  if (const char* e = std::getenv("SDN_FAULT_DELIVER_ROUND");
      e != nullptr && *e != '\0') {
    fault_round_ = std::atoll(e);
  }
  if (options_.validate_tinterval) {
    checker_ =
        std::make_unique<graph::TIntervalChecker>(n_, adversary_.interval());
  }
  topo_.Reset(n_);
  // Certification fast path: a composition-exposing adversary lets the
  // checker certify windows by witness identity, so no delta needs to be
  // materialized for it at all — the topology hot path stays identical to
  // an unvalidated run. The choice depends on the adversary alone; sinks
  // (flight recorder, trace recorder) read the published CertSample and
  // the delta buffer, never steer the checker.
  use_composition_ = checker_ != nullptr && adversary_.has_composition();
  if (checker_ != nullptr) {
    stats_.checker_path =
        use_composition_ ? CheckerPath::kComposition : CheckerPath::kGeneral;
    stats_.checker_path_reason = use_composition_
                                     ? "adversary publishes a composition"
                                     : "adversary publishes no composition";
  }
  // Deltas are materialized whenever something consumes them: the
  // streaming validator (unless it rides the composition fast path) or a
  // trace recorder. With consumers attached the adversary's RoundEdgesInto
  // fast path stays available — the driver derives the delta itself with
  // one DiffSorted when churn makes the direct path the cheaper producer
  // (WantDirectTopology); BeginRound asserts consumers see a delta every
  // round regardless of which sub-path ran.
  need_delta_ = (checker_ != nullptr && !use_composition_) ||
                options_.record_trace != nullptr;

  // Memory accounting: resolve the gauges once; the engine charges its
  // fixed per-node arrays (ChargeEngine) and the live-topology gauges are
  // updated per round. All charged sizes are pure functions of n and the
  // topology stream, so RunStats::memory is as deterministic as the rest
  // of the stats.
  budget_ = options_.memory_budget != nullptr ? options_.memory_budget
                                              : &owned_budget_;
  mem_outbox_ = budget_->Get("outbox");
  mem_programs_ = budget_->Get("programs");
  mem_topology_ = budget_->Get("topology");
  mem_topology_scratch_ = budget_->Get("topology_scratch");
  mem_adversary_ = budget_->Get("adversary");
  if (checker_ != nullptr) mem_checker_ = budget_->Get("checker");

  // Parallel geometry. Shard count is a function of n alone (so the
  // shard-ordered merges are the same computation at every
  // EngineOptions::threads setting); the thread count only decides how
  // many lanes execute those shards. The adversary gets the same lanes for
  // its own n-only shards.
  int threads = options_.threads;
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  shards_ = util::NodeShards(n_);
  lanes_ = static_cast<int>(std::min<std::int64_t>(threads, shards_));
  pool_ = lanes_ > 1 ? &util::ThreadPool::Shared() : nullptr;
  adversary_.SetShardRunner(util::ShardRunner(pool_, lanes_));
  // Async certification excludes exactly the configuration whose round
  // depends on the verdict: fail-fast. Gated on threads > 1 so
  // `threads = 1` keeps the round loop single-threaded. The run's end
  // (EndRound) and Snapshot() are the rendezvous for verdicts; the sinks
  // read the round-tagged CertSample the lane publishes.
  async_cert_ = checker_ != nullptr && options_.async_certification &&
                !options_.fail_fast_on_tinterval && threads > 1;

  for (int i = 0; i < options_.flood_probes; ++i) {
    const graph::NodeId src = (i == 0) ? graph::NodeId{0} : RandomSource();
    probes_.emplace_back(n_, src, 1);
    probe_started_.push_back(0);
    // n == 1: trivially complete at construction — it did run, so it
    // counts as spawned; leave the slot dead (respawning would complete
    // instantly forever).
    if (probes_.back().complete()) {
      probe_started_.back() = 1;
      ++probes_spawned_;
      RecordProbeCompletion(static_cast<std::size_t>(i), probes_.back());
    }
  }
}

const graph::Graph& RoundDriver::BeginRound() {
  aux_wait_ns_round_ = 0;
  t_[0] = Clock::now();
  ++round_;
  // One adversary call per round, in round order, on this thread. One of
  // two sub-paths runs, chosen by WantDirectTopology(): RoundEdgesInto
  // straight into the DynGraph's edit buffer — with one DiffSorted when a
  // checker/trace consumes deltas — or DeltaFor + Apply, also taken when
  // the adversary declines the direct call. The choice only moves work
  // between equivalent code paths; the produced graph (and every consumed
  // delta) is identical either way.
  bool assigned = false;
  bool has_delta = false;
  if (WantDirectTopology()) {
    assigned = adversary_.RoundEdgesInto(round_, view_, topo_.EditBuffer());
    if (!assigned) topo_direct_supported_ = false;
  }
  if (assigned) {
    if (need_delta_) {
      graph::DiffSorted(topo_.View().Edges(), topo_.EditBuffer(), delta_);
      has_delta = true;
    }
    topo_.CommitEdges();
    ++topo_direct_rounds_;
  } else {
    adversary_.DeltaFor(round_, view_, topo_.View(), delta_);
    has_delta = true;
    topo_.Apply(delta_);  // CheckError on a contract-violating delta
    ++topo_delta_rounds_;
  }
  // Whatever sub-path ran, every delta consumer must have a delta for
  // every round — a past regression had this gate silently starving
  // consumers when the fast path was picked.
  SDN_CHECK(!need_delta_ || has_delta);
  UpdateTopologyChurn(has_delta);
  const graph::Graph& g = topo_.View();
  if (options_.record_trace != nullptr) {
    options_.record_trace->Push(g, delta_);
  }
  stats_.edges_processed += g.num_edges();
  // Live-topology footprint this round: edge list + CSR adjacency +
  // offsets, plus the reused delta buffer. O(E_round), a pure function of
  // the topology stream — the streaming pipeline's whole point is that
  // this gauge never grows with the number of rounds.
  mem_topology_->SetCurrent(static_cast<std::int64_t>(
      static_cast<std::size_t>(g.num_edges()) *
          (sizeof(graph::Edge) + 2 * sizeof(graph::NodeId)) +
      static_cast<std::size_t>(n_ + 1) * sizeof(std::int64_t) +
      static_cast<std::size_t>(delta_.size()) * sizeof(graph::Edge)));
  // The companion gauges: the DynGraph's maintenance scratch and the
  // adversary's generator buffers. Both are capacity-based pure functions
  // of the call stream, so RunStats::memory stays bit-identical across
  // thread counts and the async-certification toggle.
  mem_topology_scratch_->SetCurrent(topo_.ScratchBytes());
  mem_adversary_->SetCurrent(adversary_.BufferBytes());
  t_[1] = Clock::now();

  if (checker_ != nullptr) Certify(g);
  t_[2] = Clock::now();

  StepProbes(g);
  t_[3] = Clock::now();
  return g;
}

void RoundDriver::Certify(const graph::Graph& g) {
  const graph::RoundComposition* comp = nullptr;
  if (use_composition_) {
    comp = adversary_.Composition(round_);
    SDN_CHECK_MSG(comp != nullptr,
                  "adversary advertises has_composition but returned no "
                  "composition for round "
                      << round_);
  }
  if (async_cert_) {
    // Certification lane: ship this round's claim as owned copies and let
    // the checker consume it off the critical path. The bounded queue
    // backpressures Submit, so the lane lags at most kCertQueueDepth
    // rounds; the run's last EndRound and Snapshot() are the rendezvous
    // that drain it before any verdict (or checker error) is read.
    // Fail-fast, the only consumer of a per-round verdict, pins the
    // synchronous path. Each task publishes its round's CertSample for the
    // sinks.
    if (comp != nullptr) {
      // The claim's core/support spans ride on their shared owners (the
      // span-lifetime contract — no spine copy); only the volatile fresh
      // span and the round's edge list need owned copies. Vector moves
      // keep the heap buffer, so spans fixed up at execution time survive
      // the closure's moves through the queue.
      SubmitCert(util::UniqueTask(
          [this, r = round_, jc = *comp,
           fresh = std::vector<graph::Edge>(comp->fresh.begin(),
                                            comp->fresh.end()),
           edges = std::vector<graph::Edge>(g.Edges().begin(),
                                            g.Edges().end())]() mutable {
            const auto c0 = Clock::now();
            jc.fresh = fresh;
            (void)checker_->PushComposition(
                jc, std::span<const graph::Edge>(edges));
            cert_ns_ += NsSince(c0);
            PublishCertSample(r);
          }));
    } else {
      SubmitCert(util::UniqueTask([this, r = round_, d = delta_]() {
        const auto c0 = Clock::now();
        (void)checker_->PushDelta(d);
        cert_ns_ += NsSince(c0);
        PublishCertSample(r);
      }));
    }
    return;
  }
  // Synchronous: the adversary's structural claim (cross-checked inside
  // the checker, no delta needed) or the same delta the topology was
  // built from.
  const bool round_ok = comp != nullptr ? checker_->PushComposition(*comp, g)
                                        : checker_->PushDelta(delta_);
  PublishCertSample(round_);
  if (round_ok || !options_.fail_fast_on_tinterval) return;
  // Mirror the bandwidth-violation fail shape: record, close the books,
  // surface through the recorder, then throw from Step().
  stats_.rounds = round_;
  stats_.tinterval_first_bad_window = checker_->first_bad_window();
  finished_ = true;
  const auto tf = Clock::now();
  std::fill(t_.begin() + 2, t_.end() - 1, tf);
  t_[7] = Clock::now();
  AccumulateTimings();
  if (rec_ != nullptr) {
    rec_->Emit({.kind = obs::EventKind::kCheckerWindow,
                .round = round_,
                .t_ns = rec_->RelNs(tf),
                .a = checker_->stable_edge_count(),
                .b = 0,
                .c = checker_->certified_T()});
  }
  SDN_CHECK_MSG(false, "T-interval violation: window starting at round "
                           << checker_->first_bad_window() + 1
                           << " has a disconnected intersection "
                              "(fail_fast_on_tinterval)");
}

void RoundDriver::FailBandwidth() {
  const BandwidthViolation& v = *stats_.bandwidth_violation;
  stats_.rounds = round_;
  finished_ = true;
  t_[5] = t_[6] = t_[4];
  t_[7] = Clock::now();
  AccumulateTimings();
  if (rec_ != nullptr) {
    EmitPhaseSpans(/*with_deliver=*/false);
    rec_->Emit({.kind = obs::EventKind::kBandwidthViolation,
                .round = round_,
                .t_ns = rec_->RelNs(t_[4]),
                .a = v.bits,
                .b = v.node});
  }
  SDN_CHECK_MSG(false, "message of " << v.bits << " bits exceeds budget "
                                     << stats_.bit_limit << " at node "
                                     << v.node << " round " << v.round);
}

void RoundDriver::BeginDeliver() {
  if (stats_.bandwidth_violation.has_value()) FailBandwidth();
  t_[5] = Clock::now();
  // Fault hook (SDN_FAULT_DELIVER_ROUND, read in Start, and
  // SDN_FAULT_DELIVER_SLEEP_MS, read here): stall the deliver window of one
  // round so the anomaly smoke test has a real spike to detect. Reading the
  // stall as the window opens lets a caller size it from the run's own
  // rolling latencies. Wall clock only — no run state is touched, so
  // deterministic RunStats are unchanged.
  if (round_ == fault_round_) {
    const char* e = std::getenv("SDN_FAULT_DELIVER_SLEEP_MS");
    const long long ms = e != nullptr ? std::atoll(e) : 0;
    if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
}

void RoundDriver::EndRound(bool all_decided) {
  stats_.rounds = round_;
  if (all_decided) {
    finished_ = true;
  } else if (round_ >= options_.max_rounds) {
    finished_ = true;
    stats_.hit_max_rounds = true;
  }
  t_[7] = Clock::now();
  AccumulateTimings();
  // The run is over: join the certification lane now, after the final
  // clock read, so Observe reads the last round's CertSample (a violation
  // in the run's last rounds reaches the sinks too). Joined whether or not
  // a sink is attached, so observation never moves where a checker error
  // surfaces: it is rethrown from this, the final, Step().
  if (finished_) cert_lane_.Drain();
}

void RoundDriver::Observe(std::int64_t delivered,
                          const std::optional<ProgramPhase>& phase) {
  // Observability sinks run after the final clock read, so their cost
  // never lands in any timing bucket — and RunStats (including timings) is
  // identical with the sinks on or off. Both sinks read the checker only
  // through its latest published CertSample, which under async
  // certification may trail this round by up to the lane depth — except
  // on the run's last round, whose EndRound joined the lane.
  CertSample cert;
  if (checker_ != nullptr && (rec_ != nullptr || anomaly_ != nullptr)) {
    cert = LatestCertSample();
  }
  if (rec_ != nullptr) ObserveRecorder(delivered, phase, cert);
  if (registry_ == nullptr) return;
  hist_round_edges_->Observe(topo_.View().num_edges());
  hist_round_deliveries_->Observe(delivered);
  hist_round_send_ns_->Observe(ElapsedNs(t_[3], t_[4]));
  hist_round_deliver_ns_->Observe(ElapsedNs(t_[5], t_[6]));
  hist_round_total_ns_->Observe(ElapsedNs(t_[0], t_[7]));
  if (anomaly_ == nullptr) return;
  obs::RoundSignals sig;
  sig.round = round_;
  sig.topology_ns = ElapsedNs(t_[0], t_[1]);
  sig.validate_ns = ElapsedNs(t_[1], t_[2]);
  sig.probe_ns = ElapsedNs(t_[2], t_[3]);
  sig.send_ns = ElapsedNs(t_[3], t_[4]);
  sig.deliver_ns = ElapsedNs(t_[5], t_[6]);
  sig.total_ns = ElapsedNs(t_[0], t_[7]);
  sig.aux_wait_ns = aux_wait_ns_round_;
  // Round 0 = no certification step has published yet; certified_T stays
  // -1 and the cert-regression rule skips the round.
  if (cert.round > 0) {
    sig.certified_T = cert.certified_T;
    sig.first_bad_window = cert.first_bad_window;
  }
  if (rec_ != nullptr) sig.recorder_dropped = rec_->dropped();
  const std::array<obs::MemorySample, 6> mem = {{
      {"outbox", mem_outbox_->current()},
      {"programs", mem_programs_->current()},
      {"topology", mem_topology_->current()},
      {"topology_scratch", mem_topology_scratch_->current()},
      {"adversary", mem_adversary_->current()},
      {"checker", mem_checker_ != nullptr ? mem_checker_->current() : 0},
  }};
  anomaly_->Observe(sig, mem);
}

RunStats RoundDriver::Snapshot(std::optional<std::int64_t> algo_work) const {
  // Deterministic rendezvous with the certification lane: every claim
  // submitted so far is consumed — and any checker error (e.g. a lying
  // composition) rethrown — before a verdict is read, so the snapshot
  // equals the synchronous engine's at the same round.
  cert_lane_.Drain();
  RunStats out = stats_;
  out.timings.aux_validate_ns += cert_ns_;
  out.tinterval_validated = options_.validate_tinterval && started_;
  out.tinterval_ok = checker_ == nullptr || checker_->ok();
  if (checker_ != nullptr) {
    out.certified_T = checker_->certified_T();
    out.tinterval_first_bad_window = checker_->first_bad_window();
    out.min_stable_forest = checker_->min_stable_forest();
    // The checker's footprint is a pure function of the rounds pushed —
    // sampled here, post-drain, so the gauge is identical across thread
    // counts and the async toggle.
    if (mem_checker_ != nullptr) {
      mem_checker_->SetCurrent(checker_->ApproxBytes());
    }
  }
  out.flooding = {.probes = probes_spawned_,
                  .completed = probes_completed_,
                  .max_rounds = probe_max_rounds_};
  if (probes_completed_ > 0) {
    out.flooding.mean_rounds =
        probe_total_rounds_ / static_cast<double>(probes_completed_);
  }
  if (budget_ != nullptr) {
    for (const util::MemoryBudget::Entry& e : budget_->Snapshot()) {
      out.memory.push_back({e.subsystem, e.current_bytes, e.peak_bytes});
    }
  }
  if (rec_ != nullptr) {
    // Truth-in-tracing: surfaced even without a registry so OneLine can
    // print `drops=` whenever a trace is no longer complete.
    out.recorder_dropped = rec_->dropped();
  }
  if (anomaly_ != nullptr) out.anomalies = anomaly_->records();
  if (registry_ == nullptr) return out;
  // Mirror the scalar aggregates into the registry so the snapshot is
  // self-contained (one structure to render or export).
  registry_->GetGauge("messages_sent")->Set(stats_.messages_sent);
  registry_->GetGauge("messages_delivered")->Set(stats_.messages_delivered);
  registry_->GetGauge("edges_processed")->Set(stats_.edges_processed);
  registry_->GetGauge("max_message_bits")->Set(stats_.max_message_bits);
  if (algo_work.has_value()) {
    registry_->GetGauge("algo_work")->Set(*algo_work);
  }
  if (rec_ != nullptr) {
    // Per-lane ring losses. Emission counts follow the recorded event
    // stream, which can depend on wall-clock sampling — flagged
    // non-deterministic so the on/off determinism comparisons ignore them
    // (and their presence).
    for (int lane = 0; lane < rec_->lanes(); ++lane) {
      registry_
          ->GetGauge("recorder_lane" + std::to_string(lane) + "_dropped",
                     /*deterministic=*/false)
          ->Set(static_cast<std::int64_t>(rec_->dropped_lane(lane)));
    }
  }
  if (anomaly_ != nullptr) {
    // Pipeline health tracks: the rolling windows' p99s, mirrored as gauges
    // so the exposition endpoint (and RunStats::metrics) carry the anomaly
    // plane's live view of each phase. Wall-clock valued —
    // non-deterministic by construction.
    using Track = obs::AnomalyEngine::Track;
    static constexpr struct {
      Track track;
      const char* name;
    } kTracks[] = {
        {Track::kTopology, "rolling_topology_ns_p99"},
        {Track::kValidate, "rolling_validate_ns_p99"},
        {Track::kProbe, "rolling_probe_ns_p99"},
        {Track::kSend, "rolling_send_ns_p99"},
        {Track::kDeliver, "rolling_deliver_ns_p99"},
        {Track::kTotal, "rolling_total_ns_p99"},
        {Track::kAuxWait, "rolling_aux_wait_ns_p99"},
    };
    for (const auto& t : kTracks) {
      registry_->GetGauge(t.name, /*deterministic=*/false)
          ->Set(anomaly_->hist(t.track).Quantile(0.99));
    }
  }
  out.metrics = registry_->Snapshot();
  return out;
}

void RoundDriver::ForShards(const util::ThreadPool::RangeFn& fn) {
  if (pool_ != nullptr) {
    pool_->ParallelFor(n_, static_cast<int>(shards_), lanes_, fn);
    return;
  }
  for (std::int64_t s = 0; s < shards_; ++s) {
    fn(static_cast<int>(s), std::int64_t{n_} * s / shards_,
       std::int64_t{n_} * (s + 1) / shards_);
  }
}

void RoundDriver::ChargeEngine(std::int64_t outbox_bytes,
                               std::int64_t programs_bytes) {
  mem_outbox_->SetCurrent(outbox_bytes);
  mem_programs_->SetCurrent(programs_bytes);
}

/// Hands one certification task to the lane. Submit blocks while the lane
/// is kCertQueueDepth rounds behind; with the anomaly plane on, that
/// backpressure wait is clocked into this round's aux-stall signal (two
/// extra steady_clock reads inside the validate window — wall-clock
/// observation only, no deterministic state touched).
void RoundDriver::SubmitCert(util::UniqueTask task) {
  if (anomaly_ == nullptr) {
    cert_lane_.Submit(std::move(task));
    return;
  }
  const auto w0 = Clock::now();
  cert_lane_.Submit(std::move(task));
  aux_wait_ns_round_ += NsSince(w0);
}

/// Topology sub-path for this round. Without delta consumers the
/// direct RoundEdgesInto path is strictly cheaper (no diff runs anywhere);
/// with consumers the churn hysteresis state decides. An adversary without
/// a native RoundEdgesInto permanently pins the delta path the first time
/// it declines.
bool RoundDriver::WantDirectTopology() const {
  if (!topo_direct_supported_) return false;
  if (!need_delta_) return true;
  return topo_use_direct_;
}

/// Folds this round's |delta| / |E| into the churn EWMA and moves the
/// direct/delta preference across the hysteresis band. No-op on rounds
/// without a delta (direct path, no consumers — there is no choice to
/// steer) and on round 1 (bootstrap delta, see kChurnHigh).
void RoundDriver::UpdateTopologyChurn(bool has_delta) {
  if (!has_delta || round_ <= 1) return;
  const auto edges = std::max<std::int64_t>(1, topo_.View().num_edges());
  const double churn =
      static_cast<double>(delta_.size()) / static_cast<double>(edges);
  churn_ewma_ =
      churn_seeded_ ? churn_ewma_ + kChurnAlpha * (churn - churn_ewma_) : churn;
  churn_seeded_ = true;
  if (topo_use_direct_) {
    if (churn_ewma_ < kChurnLow) topo_use_direct_ = false;
  } else if (churn_ewma_ > kChurnHigh) {
    topo_use_direct_ = true;
  }
}

/// Named windows: topology t0..t1, validate t1..t2, probe t2..t3, send
/// t3..t4 (the ForShards barrier only), deliver t5..t6 (ditto); t7 is the
/// final clock read. other_ns is the residual — everything between the
/// named windows (shard merges, stats bookkeeping) —
/// constructed as total minus the named phases so the partition identity
/// topology+validate+probe+send+deliver+other == total holds exactly
/// (debug-asserted below, pinned by test_bandwidth_metrics).
void RoundDriver::AccumulateTimings() {
  const std::int64_t topology = ElapsedNs(t_[0], t_[1]);
  const std::int64_t validate = ElapsedNs(t_[1], t_[2]);
  const std::int64_t probe = ElapsedNs(t_[2], t_[3]);
  const std::int64_t send = ElapsedNs(t_[3], t_[4]);
  const std::int64_t deliver = ElapsedNs(t_[5], t_[6]);
  const std::int64_t total = ElapsedNs(t_[0], t_[7]);
  EngineTimings& tm = stats_.timings;
  tm.topology_ns += topology;
  tm.validate_ns += validate;
  tm.probe_ns += probe;
  tm.send_ns += send;
  tm.deliver_ns += deliver;
  tm.other_ns += total - (topology + validate + probe + send + deliver);
  tm.total_ns += total;
#ifndef NDEBUG
  SDN_CHECK_MSG(tm.topology_ns + tm.validate_ns + tm.probe_ns + tm.send_ns +
                        tm.deliver_ns + tm.other_ns ==
                    tm.total_ns,
                "EngineTimings phases must partition total_ns");
#endif
}

/// Emits this round's engine-phase spans (kPhase) — the deliver window is
/// included only when the round got that far.
void RoundDriver::EmitPhaseSpans(bool with_deliver) {
  const auto span = [this](const char* label, Clock::time_point a,
                           Clock::time_point b) {
    rec_->Emit({.kind = obs::EventKind::kPhase,
                .round = round_,
                .t_ns = rec_->RelNs(a),
                .dur_ns = rec_->RelNs(b) - rec_->RelNs(a),
                .label = label});
  };
  span("topology", t_[0], t_[1]);
  span("validate", t_[1], t_[2]);
  span("probe", t_[2], t_[3]);
  span("send", t_[3], t_[4]);
  if (with_deliver) span("deliver", t_[5], t_[6]);
}

/// Publishes the checker's state after round `r` was pushed — on whichever
/// thread ran the push, so the checker is never read concurrently.
void RoundDriver::PublishCertSample(std::int64_t r) {
  const CertSample sample{.round = r,
                          .ok = checker_->ok(),
                          .certified_T = checker_->certified_T(),
                          .first_bad_window = checker_->first_bad_window(),
                          .stable_edge_count = checker_->stable_edge_count()};
  const std::lock_guard<std::mutex> lock(cert_mu_);
  cert_sample_ = sample;
}

RoundDriver::CertSample RoundDriver::LatestCertSample() const {
  const std::lock_guard<std::mutex> lock(cert_mu_);
  return cert_sample_;
}

/// Per-round flight-recorder emission: phase spans, the algorithm-phase
/// track and sketch-merge progress from the program's phase sample,
/// checker window state (stamped with the sample's own round), and
/// bandwidth high-water marks.
void RoundDriver::ObserveRecorder(std::int64_t delivered,
                                  const std::optional<ProgramPhase>& phase,
                                  const CertSample& cert) {
  EmitPhaseSpans(/*with_deliver=*/true);
  const std::int64_t now = rec_->RelNs(t_[6]);
  if (phase.has_value()) {
    // The run-level track samples node 0 (all nodes follow the same global
    // schedule; divergence is exactly what the alarm machinery detects).
    // Label identity is pointer identity — labels are static.
    if (phase->label != obs_algo_label_ || phase->index != obs_algo_index_) {
      obs_algo_label_ = phase->label;
      obs_algo_index_ = phase->index;
      rec_->Emit({.kind = obs::EventKind::kAlgoPhase,
                  .round = round_,
                  .t_ns = now,
                  .a = phase->index,
                  .label = phase->label});
    }
    if (phase->work != obs_merges_total_) {
      rec_->Emit({.kind = obs::EventKind::kSketchMerge,
                  .round = round_,
                  .t_ns = now,
                  .a = phase->work,
                  .b = phase->work - obs_merges_total_});
      obs_merges_total_ = phase->work;
    }
  }
  if (cert.round > 0 &&
      (cert.stable_edge_count != obs_stable_edges_ ||
       cert.ok != obs_checker_ok_ || cert.certified_T != obs_cert_)) {
    obs_stable_edges_ = cert.stable_edge_count;
    obs_checker_ok_ = cert.ok;
    obs_cert_ = cert.certified_T;
    rec_->Emit({.kind = obs::EventKind::kCheckerWindow,
                .round = cert.round,
                .t_ns = now,
                .a = cert.stable_edge_count,
                .b = cert.ok ? 1 : 0,
                .c = cert.certified_T});
  }
  if (stats_.max_message_bits > obs_hw_bits_) {
    obs_hw_bits_ = stats_.max_message_bits;
    rec_->Emit({.kind = obs::EventKind::kBandwidthHighWater,
                .round = round_,
                .t_ns = now,
                .a = obs_hw_bits_});
  }
  rec_->Emit({.kind = obs::EventKind::kCounter,
              .round = round_,
              .t_ns = now,
              .a = delivered,
              .label = "deliveries"});
}

graph::NodeId RoundDriver::RandomSource() {
  return static_cast<graph::NodeId>(
      probe_rng_.UniformU64(static_cast<std::uint64_t>(n_)));
}

void RoundDriver::StepProbes(const graph::Graph& g) {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    FloodProbe& p = probes_[i];
    if (p.complete()) continue;  // dead slot (n == 1)
    // A probe counts as spawned only once an executed round reaches its
    // start round — a staggered respawn whose start lies beyond the end of
    // the run never becomes a probe (it would otherwise show up as a
    // phantom never-started probe and understate the completion rate).
    if (probe_started_[i] == 0) {
      if (round_ < p.start_round()) continue;
      probe_started_[i] = 1;
      ++probes_spawned_;
      if (rec_ != nullptr) {
        rec_->Emit({.kind = obs::EventKind::kProbeSpawn,
                    .round = round_,
                    .t_ns = rec_->NowNs(),
                    .a = static_cast<std::int64_t>(i),
                    .b = p.source()});
      }
    }
    p.Push(round_, g);
    if (!p.complete()) continue;
    RecordProbeCompletion(i, p);
    // Stagger: relaunch this slot from a fresh source at round 2c. Start
    // rounds are sampled at geometrically spaced points of the run, and the
    // probe work stays O(E·d·log rounds) total instead of O(E·rounds).
    p = FloodProbe(n_, RandomSource(), 2 * round_);
    probe_started_[i] = 0;
  }
}

void RoundDriver::RecordProbeCompletion(std::size_t slot, const FloodProbe& p) {
  ++probes_completed_;
  probe_max_rounds_ = std::max(probe_max_rounds_, p.completion_rounds());
  probe_total_rounds_ += static_cast<double>(p.completion_rounds());
  if (rec_ != nullptr) {
    rec_->Emit({.kind = obs::EventKind::kProbeComplete,
                .round = round_,
                .t_ns = rec_->NowNs(),
                .a = static_cast<std::int64_t>(slot),
                .b = p.completion_rounds()});
  }
}

}  // namespace sdn::net
