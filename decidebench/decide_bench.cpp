// decide_bench: the time-to-decide benchmark program.
//
// Runs one workload to decision through the public sdn::Simulation facade
// and prints its metrics, then one JSON result object as the last line of
// stdout. Two modes, never mixed in one process:
//
//   --trace 0  end to end: repeated decisions with nothing but the clock
//              around Simulation construction and Step(); medians of
//              decide_s and setup_s, peak RSS, rounds, certified T.
//   --trace 1  per layer: one decision with each Step() timed, then a
//              component replay of its round stream (adversary -> DynGraph
//              -> both T-interval checker paths), kernel timings over
//              inbox-shaped inputs and, on recorded-16k, the flight-recorder
//              costs.
//
// Decision i of a run uses seed DecisionSeed(--seed, i): the first one runs
// --seed itself, each later one a fresh instance. Repeating one seed would
// time the library's process-wide spine pool (adversary/spine.hpp) serving
// every spine after the first decision, which no single run gets.
//
// Every decision is graded: Ok(), certified_T == T, no max_rounds cut-off,
// rounds equal to the workload's recorded value (seed-invariant at full
// size). The trace run also cross-checks the replay against the live run.
// Any failure counts in `failed`; nothing is dropped. See README.md for the
// metric catalogue.
//
//   decide_bench --workload gnp-65k --seed 42 --seconds 40 --trace 0 [--smoke]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adversary/factory.hpp"
#include "algo/estimator.hpp"
#include "algo/idset.hpp"
#include "algo/kernels.hpp"
#include "core/api.hpp"
#include "core/simulation.hpp"
#include "graph/delta.hpp"
#include "graph/tinterval.hpp"
#include "net/adversary.hpp"
#include "obs/manifest.hpp"
#include "obs/recorder.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using sdn::graph::NodeId;

constexpr int kT = 2;
constexpr std::uint64_t kDefaultSeed = 42;
/// The held-out seed: later performance claims are re-checked on it.
constexpr std::uint64_t kHeldOutSeed = 7;
/// setup_s is a median over at least this many constructions per process,
/// adding constructions until they also add up to kMinSetupSeconds.
constexpr std::size_t kMinSetupSamples = 7;
constexpr double kMinSetupSeconds = 0.25;
/// The adversary seed the facade derives from RunConfig::seed (core/api.cpp).
/// If the facade ever derives it differently, the replay cross-check fails.
constexpr std::uint64_t kAdversarySeedTag = 0xadd5e5ULL;
/// Replay budget of the general T-interval checker, in seconds of its own
/// time (on gnp-65k it would otherwise take about a minute).
constexpr double kGeneralBudgetS = 4.0;
/// Kernel timings: calls per batch and distinct id sets, both capped so
/// the ledger stays small at n = 65536.
constexpr std::int64_t kMaxKernelCalls = std::int64_t{1} << 16;
constexpr std::size_t kMaxIdSets = 1024;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Workload {
  const char* name;
  sdn::Algorithm algorithm;
  const char* adversary;
  NodeId n;
  NodeId smoke_n;  ///< node count in --smoke mode
  int threads;
  bool recorded;  ///< FlightRecorder attached + collect_metrics
  /// Rounds to decide at full size. The same on every seed measured (42,
  /// the held-out 7, 101-110 and the instances derived from them), so the
  /// correctness gate demands it of every decision.
  std::int64_t rounds;
};

constexpr Workload kWorkloads[] = {
    {"gnp-65k", sdn::Algorithm::kHjswyEstimate, "spine-gnp", 65536, 256, 4,
     false, 109},
    {"census-128", sdn::Algorithm::kKloCensusT, "spine-gnp", 128, 16, 1,
     false, 46256},
    {"recorded-16k", sdn::Algorithm::kHjswyEstimate, "spine-gnp", 16384, 128,
     2, true, 109},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// One decision's resources: the config plus what must outlive the run.
struct RunSetup {
  sdn::RunConfig config;
  std::unique_ptr<sdn::util::MemoryBudget> budget;
  std::unique_ptr<sdn::obs::FlightRecorder> recorder;
};

std::uint64_t DecisionSeed(std::uint64_t seed, std::uint64_t i) {
  return i == 0 ? seed : sdn::util::MixSeed(seed, i);
}

RunSetup MakeSetup(const Options& opt, std::uint64_t seed, bool with_recorder) {
  const Workload& w = *opt.workload;
  RunSetup s;
  s.config.n = opt.smoke ? w.smoke_n : w.n;
  s.config.T = kT;
  s.config.seed = seed;
  s.config.adversary.kind = w.adversary;
  s.config.flood_probes = 0;
  s.config.validate_tinterval = true;
  s.config.threads = w.threads;
  s.budget = std::make_unique<sdn::util::MemoryBudget>();
  s.config.memory_budget = s.budget.get();
  if (w.recorded) s.config.collect_metrics = true;
  if (with_recorder) {
    s.recorder = std::make_unique<sdn::obs::FlightRecorder>();
    s.config.recorder = s.recorder.get();
  }
  return s;
}

/// The correctness gate for one graded decision; empty string = pass.
/// Smoke mode skips the rounds check: tiny n has no recorded value.
std::string Grade(const sdn::RunResult& r, const Options& opt) {
  if (!r.Ok()) return "result not Ok()";
  if (r.stats.certified_T != kT) {
    return "certified_T " + std::to_string(r.stats.certified_T) +
           " != T " + std::to_string(kT);
  }
  if (r.stats.hit_max_rounds) return "hit max_rounds";
  if (!opt.smoke && r.stats.rounds != opt.workload->rounds) {
    return "rounds " + std::to_string(r.stats.rounds) + " != recorded " +
           std::to_string(opt.workload->rounds);
  }
  return {};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Peak resident set so far, in MB (10^6 bytes, like the mem.* metrics).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

/// Named metrics in print order, each with its unit.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  void Print(bool correct, std::int64_t attempted, std::int64_t failed) const {
    for (const auto& m : items_) {
      std::printf("%-30s %20.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                  items_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Failure ledger: every failed decision or cross-check, with its reason.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void Record(const std::string& what, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(), why.c_str());
  }
};

// ---------------------------------------------------------------------------
// End-to-end mode

struct Decision {
  double setup_s = 0.0;
  double decide_s = 0.0;
  std::optional<sdn::RunResult> result;
  std::string error;  ///< why it failed (Step() threw or Grade); empty = ok
};

Decision DecideOnce(const Options& opt, std::uint64_t seed,
                    bool with_recorder) {
  Decision d;
  const auto t0 = Clock::now();
  RunSetup setup = MakeSetup(opt, seed, with_recorder);
  sdn::Simulation sim(opt.workload->algorithm, setup.config);
  const auto t1 = Clock::now();
  d.setup_s = Seconds(t1 - t0);
  try {
    while (sim.Step()) {
    }
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  d.decide_s = Seconds(Clock::now() - t1);
  if (d.error.empty()) {
    d.result = sim.Finish();
    d.error = Grade(*d.result, opt);
  }
  return d;
}

int RunEndToEnd(const Options& opt) {
  const Workload& w = *opt.workload;
  Ledger ledger;
  std::vector<double> setup_s;
  std::vector<double> decide_s;
  std::int64_t rounds = 0;
  std::int64_t certified_T = 0;
  // Decisions run back to back while the next one (estimated from the
  // slowest so far) still ends inside --seconds; at least one runs.
  const auto start = Clock::now();
  double slowest = 0.0;
  double peak_rss_mb = 0.0;
  do {
    Decision d = DecideOnce(opt, DecisionSeed(opt.seed, decide_s.size()),
                            w.recorded);
    setup_s.push_back(d.setup_s);
    decide_s.push_back(d.decide_s);
    slowest = std::max(slowest, d.setup_s + d.decide_s);
    // Peak RSS of one decision: later ones reuse (and fragment) the heap
    // the first one grew, so their high-water mark depends on the count.
    if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();
    if (d.result.has_value()) {
      rounds = d.result->stats.rounds;
      certified_T = d.result->stats.certified_T;
    }
    ledger.Record("decision " + std::to_string(decide_s.size()), d.error);
  } while (Seconds(Clock::now() - start) + slowest < opt.seconds);
  // Top up setup_s with constructions that are not stepped.
  double setup_total = 0.0;
  for (const double x : setup_s) setup_total += x;
  while (setup_s.size() < kMinSetupSamples || setup_total < kMinSetupSeconds) {
    const auto t0 = Clock::now();
    {
      RunSetup setup =
          MakeSetup(opt, DecisionSeed(opt.seed, setup_s.size()), w.recorded);
      sdn::Simulation sim(w.algorithm, setup.config);
      setup_s.push_back(Seconds(Clock::now() - t0));
    }
    setup_total += setup_s.back();
  }
  std::printf("# decisions=%zu setups=%zu (decide_s and setup_s are medians)\n",
              decide_s.size(), setup_s.size());
  std::printf("# decide_s samples:");
  for (const double x : decide_s) std::printf(" %.4f", x);
  std::printf("\n");
  Metrics m;
  m.Add("decide_s", Median(decide_s), "s");
  m.Add("setup_s", Median(setup_s), "s");
  m.Add("peak_rss_mb", peak_rss_mb, "MB");
  m.Add("rounds", static_cast<double>(rounds), "rounds");
  m.Add("certified_T", static_cast<double>(certified_T), "rounds");
  m.Print(ledger.failed == 0, ledger.attempted, ledger.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced mode: per-layer ledger

/// The view the replayed adversary gets: the round and n, no node state.
/// Every workload's adversary is oblivious; an adaptive one would diverge
/// from the live run and fail the edge cross-check.
class ObliviousView final : public sdn::net::AdversaryView {
 public:
  explicit ObliviousView(NodeId n) : n_(n) {}
  void set_round(std::int64_t r) { round_ = r; }
  [[nodiscard]] std::int64_t round() const override { return round_; }
  [[nodiscard]] double PublicState(NodeId /*u*/) const override { return 0.0; }
  [[nodiscard]] NodeId num_nodes() const override { return n_; }

 private:
  NodeId n_;
  std::int64_t round_ = 0;
};

/// Busy time of one layer's calls, accumulated span by span.
struct Span {
  Clock::duration busy{};
  template <typename F>
  void operator()(F&& f) {
    const auto t0 = Clock::now();
    f();
    busy += Clock::now() - t0;
  }
  [[nodiscard]] double seconds() const { return Seconds(busy); }
};

/// Component replay of the live run's round stream through public calls.
/// It runs after the live run, so the spines the live adversary generated
/// come from the process-wide spine pool: adversary.gen_s is the per-round
/// assembly, and spine generation shows in the live net.* times.
struct Replay {
  explicit Replay(const sdn::RunConfig& config)
      : view(config.n),
        dyn(config.n),
        general(config.n, config.T),
        witness(config.n, config.T) {
    sdn::adversary::AdversaryConfig ac = config.adversary;
    ac.n = config.n;
    ac.T = config.T;
    ac.seed = sdn::util::MixSeed(config.seed, kAdversarySeedTag);
    adversary = sdn::adversary::MakeAdversary(ac);
  }

  /// Replays round r: the same call the engine makes for it, then the
  /// graph update and both certification paths on the result. The general
  /// checker replays the rounds that fit in kGeneralBudgetS of its own
  /// time (all of them on the smaller workloads); both checker timings
  /// cover exactly those `checked_rounds`, so their ratio compares like
  /// with like.
  void Round(std::int64_t r) {
    view.set_round(r);
    gen([&] { adversary->DeltaFor(r, view, dyn.View(), delta); });
    delta_edges += delta.size();
    apply([&] { dyn.Apply(delta); });
    const sdn::graph::Graph& g = dyn.View();
    edges += g.num_edges();
    const bool timed = general_push.seconds() < kGeneralBudgetS;
    if (timed) {
      general_push([&] { general.PushDelta(delta); });
      ++checked_rounds;
    }
    if (adversary->has_composition()) {
      const auto push = [&] {
        witness.PushComposition(*adversary->Composition(r), g);
      };
      if (timed) {
        witness_push(push);
      } else {
        push();
      }
    }
  }

  std::unique_ptr<sdn::net::Adversary> adversary;
  ObliviousView view;
  sdn::graph::DynGraph dyn;
  sdn::graph::TopologyDelta delta;
  sdn::graph::TIntervalChecker general;
  sdn::graph::TIntervalChecker witness;
  Span gen, apply, general_push, witness_push;
  std::int64_t delta_edges = 0;
  std::int64_t edges = 0;
  std::int64_t checked_rounds = 0;
};

/// Repeats `batch` until at least 5 batches and `min_s` seconds have run;
/// returns the median seconds per batch.
double TimePerBatch(const std::function<void()>& batch, double min_s = 0.05) {
  std::vector<double> per;
  double total = 0.0;
  while (per.size() < 5 || total < min_s) {
    const auto t0 = Clock::now();
    batch();
    per.push_back(Seconds(Clock::now() - t0));
    total += per.back();
  }
  return Median(per);
}

/// Kernel timings over inputs shaped like the workload's inboxes: a batch
/// is min(deliveries per round, kMaxKernelCalls) (message, receiver) pairs,
/// each merging coords_per_msg sketch coordinates (MinU32, MergeBlock) or
/// one id set over n ids (IdSet::UnionWith); receivers and senders are
/// drawn from the n nodes (id sets from a pool of at most kMaxIdSets).
void KernelLedger(NodeId n, std::int64_t deliveries, std::uint64_t seed,
                  Metrics& m) {
  const sdn::algo::HjswyOptions hjswy;
  const auto L = static_cast<std::size_t>(hjswy.sketch_len);
  const auto k = static_cast<std::size_t>(hjswy.coords_per_msg);
  const auto nn = static_cast<std::size_t>(n);
  const auto calls = static_cast<std::size_t>(
      std::clamp<std::int64_t>(deliveries, 1, kMaxKernelCalls));
  sdn::util::Rng rng(sdn::util::MixSeed(seed, 0x6b65726eULL));

  std::vector<std::uint32_t> pairs(2 * calls);  // (receiver, sender) rows
  std::vector<std::uint32_t> cols(calls);       // coordinate block base
  for (std::size_t i = 0; i < calls; ++i) {
    pairs[2 * i] = static_cast<std::uint32_t>(rng.UniformU64(nn));
    pairs[2 * i + 1] = static_cast<std::uint32_t>(rng.UniformU64(nn));
    cols[i] = static_cast<std::uint32_t>(rng.UniformU64(L / k) * k);
  }

  std::vector<std::uint32_t> pool(nn * L);
  for (auto& x : pool) x = static_cast<std::uint32_t>(rng() >> 33);
  std::vector<std::uint32_t> inbox(pool);
  const double minu32_s = TimePerBatch([&] {
    for (std::size_t i = 0; i < calls; ++i) {
      sdn::algo::kernels::MinU32(pool.data() + pairs[2 * i] * L + cols[i],
                                 inbox.data() + pairs[2 * i + 1] * L + cols[i],
                                 k);
    }
  });
  // Bytes the kernel computes on: acc read + vals read + acc write.
  const double bytes = static_cast<double>(calls * k * 3 * 4);

  std::vector<sdn::algo::CardinalityEstimator> sketches;
  sketches.reserve(nn);
  for (std::size_t u = 0; u < nn; ++u) {
    sketches.emplace_back(hjswy.sketch_len, rng, /*quantize_float32=*/true);
  }
  std::vector<double> msgs(nn * L);
  for (std::size_t u = 0; u < nn; ++u) {
    for (std::size_t c = 0; c < L; ++c) msgs[u * L + c] = sketches[u].Coord(c);
  }
  const double mergeblock_s = TimePerBatch([&] {
    for (std::size_t i = 0; i < calls; ++i) {
      sketches[pairs[2 * i]].MergeBlock(
          cols[i], std::span<const double>(
                       msgs.data() + pairs[2 * i + 1] * L + cols[i], k));
    }
  });

  // Id sets half full, as in the middle of a census run.
  const std::size_t num_sets = std::min(nn, kMaxIdSets);
  std::vector<sdn::algo::IdSet> sets(num_sets);
  for (std::size_t u = 0; u < num_sets; ++u) {
    for (std::size_t id = 0; id < nn; ++id) {
      if ((rng() & 1) != 0) sets[u].Insert(static_cast<NodeId>(id));
    }
    sets[u].Insert(static_cast<NodeId>(nn - 1));
  }
  std::vector<sdn::algo::IdSet> acc(sets);
  const double idset_s = TimePerBatch([&] {
    for (std::size_t i = 0; i < calls; ++i) {
      acc[pairs[2 * i] % num_sets].UnionWith(sets[pairs[2 * i + 1] % num_sets]);
    }
  });

  m.Add("algo.minu32_s", minu32_s, "s");
  m.Add("algo.minu32_gbps", bytes / minu32_s / 1e9, "GB/s");
  m.Add("algo.mergeblock_s", mergeblock_s, "s");
  m.Add("algo.idset_union_s", idset_s, "s");
  m.Add("algo.isa_tier",
        static_cast<double>(sdn::algo::kernels::ActiveIsa()), "tier");
}

/// Memory subsystems reported per workload (RunStats::memory); a subsystem
/// the run did not charge reads 0.
constexpr const char* kMemSubsystems[] = {
    "outbox", "programs", "topology", "topology_scratch", "adversary",
    "checker", "sketch_pool",
};

int RunTraced(const Options& opt) {
  const Workload& w = *opt.workload;
  Ledger ledger;
  Metrics m;

  RunSetup setup = MakeSetup(opt, opt.seed, w.recorded);
  sdn::Simulation sim(w.algorithm, setup.config);
  std::vector<double> round_ms;
  Clock::duration stepping{};
  std::string error;
  try {
    for (;;) {
      const auto t0 = Clock::now();
      const bool stepped = sim.Step();
      const auto dt = Clock::now() - t0;
      if (!stepped) break;
      stepping += dt;
      round_ms.push_back(Seconds(dt) * 1e3);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::optional<sdn::RunResult> result;
  double grade_s = 0.0;
  if (error.empty()) {
    const auto t0 = Clock::now();
    result = sim.Finish();
    grade_s = Seconds(Clock::now() - t0);
    error = Grade(*result, opt);
  }
  ledger.Record("traced decision", error);
  const sdn::net::RunStats stats =
      result.has_value() ? result->stats : sim.Stats();

  Replay replay(setup.config);
  for (std::int64_t r = 1; r <= stats.rounds; ++r) replay.Round(r);

  // Replay cross-checks: the per-layer numbers measured the same stream.
  std::string why;
  if (replay.edges != stats.edges_processed) {
    why = "replayed edges " + std::to_string(replay.edges) +
          " != net.edges_processed " + std::to_string(stats.edges_processed);
  }
  ledger.Record("replay edge total", why);
  why.clear();
  if (replay.general.certified_T() != stats.certified_T) {
    why = "replayed general certified_T " +
          std::to_string(replay.general.certified_T()) + " != run's " +
          std::to_string(stats.certified_T);
  } else if (replay.adversary->has_composition() &&
             replay.witness.certified_T() != stats.certified_T) {
    why = "replayed witness certified_T " +
          std::to_string(replay.witness.certified_T()) + " != run's " +
          std::to_string(stats.certified_T);
  }
  ledger.Record("replay certified_T", why);

  const auto& t = stats.timings;
  const auto s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };
  const std::int64_t phases = t.topology_ns + t.validate_ns + t.probe_ns +
                              t.send_ns + t.deliver_ns + t.other_ns;
  m.Add("trace.decide_s", Seconds(stepping), "s");
  m.Add("core.grade_s", grade_s, "s");
  m.Add("net.round_p50_ms", Percentile(round_ms, 0.50), "ms");
  m.Add("net.round_p90_ms", Percentile(round_ms, 0.90), "ms");
  m.Add("net.round_p99_ms",
        round_ms.size() >= 1000 ? Percentile(round_ms, 0.99) : 0.0, "ms");
  m.Add("net.topology_s", s(t.topology_ns), "s");
  m.Add("net.validate_s", s(t.validate_ns), "s");
  m.Add("net.send_s", s(t.send_ns), "s");
  m.Add("net.deliver_s", s(t.deliver_ns), "s");
  m.Add("net.other_s", s(t.other_ns), "s");
  m.Add("net.aux_topology_s", s(t.aux_topology_ns), "s");
  m.Add("net.aux_validate_s", s(t.aux_validate_ns), "s");
  m.Add("net.overlap_ratio",
        t.total_ns > 0 ? static_cast<double>(phases + t.aux_topology_ns +
                                             t.aux_validate_ns) /
                             static_cast<double>(t.total_ns)
                       : 0.0,
        "ratio");
  m.Add("net.edges_processed", static_cast<double>(stats.edges_processed),
        "count");
  m.Add("net.messages_delivered",
        static_cast<double>(stats.messages_delivered), "count");
  m.Add("net.total_message_bits",
        static_cast<double>(stats.total_message_bits), "bits");
  for (const char* sub : kMemSubsystems) {
    double mb = 0.0;
    for (const auto& use : stats.memory) {
      if (use.subsystem == sub) mb = static_cast<double>(use.peak_bytes) / 1e6;
    }
    m.Add(std::string("mem.") + sub + "_peak_mb", mb, "MB");
  }
  m.Add("adversary.gen_s", replay.gen.seconds(), "s");
  m.Add("adversary.delta_edges", static_cast<double>(replay.delta_edges),
        "count");
  m.Add("graph.apply_s", replay.apply.seconds(), "s");
  const double general_s = replay.general_push.seconds();
  const double witness_s = replay.witness_push.seconds();
  m.Add("tinterval.general_s", general_s, "s");
  m.Add("tinterval.witness_s", witness_s, "s");
  m.Add("tinterval.checked_rounds",
        static_cast<double>(replay.checked_rounds), "rounds");
  m.Add("tinterval.general_over_witness",
        witness_s > 0.0 ? general_s / witness_s : 0.0, "ratio");
  m.Add("tinterval.certified_T",
        static_cast<double>(replay.general.certified_T()), "rounds");
  m.Add("algo.count_max_rel_error",
        result.has_value() ? result->count_max_rel_error.value_or(0.0) : 0.0,
        "ratio");
  const std::int64_t per_round =
      stats.rounds > 0 ? stats.messages_delivered / stats.rounds : 0;
  KernelLedger(sim.NumNodes(), per_round, opt.seed, m);

  // Observability layer: only recorded-16k attaches a recorder.
  double events = 0.0;
  double dropped = 0.0;
  double export_s = 0.0;
  double overhead = 0.0;
  if (setup.recorder != nullptr) {
    events = static_cast<double>(setup.recorder->total_emitted());
    dropped = static_cast<double>(setup.recorder->dropped());
    const sdn::obs::RunManifest manifest = sdn::obs::RunManifest::Collect();
    std::ostringstream sink;
    const auto t0 = Clock::now();
    setup.recorder->WriteChromeTrace(sink, &manifest);
    export_s = Seconds(Clock::now() - t0);
    // Paired untraced decisions with the recorder off, then on, each on a
    // fresh instance so neither finds the other's spines pooled.
    const Decision off = DecideOnce(opt, DecisionSeed(opt.seed, 1), false);
    const Decision on = DecideOnce(opt, DecisionSeed(opt.seed, 2), true);
    ledger.Record("recorder-off decision", off.error);
    ledger.Record("recorder-on decision", on.error);
    overhead = off.decide_s > 0.0 ? on.decide_s / off.decide_s : 0.0;
  }
  m.Add("obs.events", events, "count");
  m.Add("obs.dropped", dropped, "count");
  m.Add("obs.export_s", export_s, "s");
  m.Add("obs.recorder_overhead", overhead, "ratio");

  std::printf("# rounds=%lld (per-round samples=%zu)\n",
              static_cast<long long>(stats.rounds), round_ms.size());
  m.Print(ledger.failed == 0, ledger.attempted, ledger.failed);
  return 0;
}

// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "decide_bench: %s\nusage: decide_bench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke]\nworkloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string name = value();
      for (const auto& w : kWorkloads) {
        if (name == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) Usage(("unknown workload " + name).c_str());
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      Usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload == nullptr) Usage("--workload is required");
  return opt;
}

/// Provenance stamp; false when the build must not be recorded from.
bool StampProvenance(const Options& opt) {
  sdn::obs::RunManifest manifest = sdn::obs::RunManifest::Collect();
  manifest.Set("workload", opt.workload->name);
  manifest.Set("seed", static_cast<long long>(opt.seed));
  manifest.Set("held_out_seed", static_cast<long long>(kHeldOutSeed));
  manifest.Set("mode", opt.trace ? "trace" : "end_to_end");
  manifest.Set("smoke", opt.smoke ? "1" : "0");
  manifest.Set("nproc",
               static_cast<long long>(std::thread::hardware_concurrency()));
  manifest.Set("engine_threads",
               static_cast<long long>(opt.workload->threads));
  manifest.Set("isa", sdn::algo::kernels::ToString(
                          sdn::algo::kernels::ActiveIsa()));
  for (const auto& line : manifest.CommentLines()) {
    std::printf("%s\n", line.c_str());
  }
  const std::string* build_type = manifest.Find("build_type");
  const std::string* assertions = manifest.Find("assertions");
#ifdef NDEBUG
  const bool bench_release = true;
#else
  const bool bench_release = false;
#endif
  if (build_type == nullptr || *build_type != "Release" ||
      assertions == nullptr || *assertions != "off" || !bench_release) {
    std::fprintf(stderr,
                 "decide_bench: refusing to record from a non-Release or "
                 "assertions-on build (build_type=%s assertions=%s)\n",
                 build_type != nullptr ? build_type->c_str() : "?",
                 assertions != nullptr ? assertions->c_str() : "?");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  if (!StampProvenance(opt)) return 3;
  std::fflush(stdout);
  return opt.trace ? RunTraced(opt) : RunEndToEnd(opt);
}
