#include "core/api.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include "algo/flood_max.hpp"
#include "algo/klo_committee.hpp"
#include "core/simulation.hpp"
#include "core/version.hpp"
#include "net/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn {

const char* VersionString() { return "1.0.0"; }

const char* ToString(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFloodMaxKnownN:
      return "flood-max";
    case Algorithm::kFloodConsensusKnownN:
      return "flood-consensus";
    case Algorithm::kKloCommittee:
      return "klo-committee";
    case Algorithm::kKloCensus1:
      return "klo-census";
    case Algorithm::kKloCensusT:
      return "klo-census-T";
    case Algorithm::kHjswyEstimate:
      return "hjswy-estimate";
    case Algorithm::kHjswyCensus:
      return "hjswy-census";
    case Algorithm::kHjswyStrict:
      return "hjswy-strict";
  }
  return "?";
}

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kFloodMaxKnownN, Algorithm::kFloodConsensusKnownN,
          Algorithm::kKloCommittee,   Algorithm::kKloCensus1,
          Algorithm::kKloCensusT,     Algorithm::kHjswyEstimate,
          Algorithm::kHjswyCensus,    Algorithm::kHjswyStrict};
}

std::vector<algo::Value> MakeInputs(graph::NodeId n, std::uint64_t seed) {
  SDN_CHECK(n >= 1);
  util::Rng rng(util::MixSeed(seed, 0x1fb075ULL));
  std::vector<algo::Value> inputs(static_cast<std::size_t>(n));
  for (auto& v : inputs) {
    v = rng.UniformInt(-1000000, 1000000);
  }
  return inputs;
}

bool RunResult::Ok() const {
  if (!stats.all_decided) return false;
  // Certification must be real: a validated run must have held the promise,
  // and an unvalidated run only passes when the caller explicitly waived
  // validation (vacuous tinterval_ok is not success).
  if (stats.tinterval_validated ? !stats.tinterval_ok : !tinterval_waived) {
    return false;
  }
  if (count_exact.has_value() && !*count_exact) return false;
  if (max_correct.has_value() && !*max_correct) return false;
  if (consensus_agreement.has_value() && !*consensus_agreement) return false;
  if (consensus_valid.has_value() && !*consensus_valid) return false;
  return true;
}

namespace {

/// Per-node graded outputs, extracted uniformly from every program type.
struct NodeAnswers {
  std::optional<std::int64_t> count;
  std::optional<double> count_estimate;
  std::optional<double> sum_estimate;
  std::optional<algo::Value> max;
  std::optional<algo::Value> consensus;
};

void Grade(const RunConfig& config, const std::vector<algo::Value>& inputs,
           const std::vector<NodeAnswers>& answers, RunResult& result) {
  const auto n = static_cast<std::int64_t>(config.n);
  result.expected_count = n;
  result.expected_max = *std::max_element(inputs.begin(), inputs.end());

  bool any_count = false;
  bool any_estimate = false;
  bool any_max = false;
  bool any_consensus = false;
  bool count_ok = true;
  double worst_rel = 0.0;
  bool max_ok = true;
  bool agree = true;
  bool valid = true;
  std::optional<algo::Value> consensus_value;
  for (const NodeAnswers& a : answers) {
    if (a.count.has_value()) {
      any_count = true;
      count_ok &= (*a.count == n);
    }
    if (a.count_estimate.has_value()) {
      any_estimate = true;
      const double rel = std::fabs(*a.count_estimate - static_cast<double>(n)) /
                         static_cast<double>(n);
      worst_rel = std::max(worst_rel, rel);
    }
    if (a.sum_estimate.has_value()) {
      double expected_sum = 0.0;
      for (const algo::Value v : inputs) {
        if (v > 0) expected_sum += static_cast<double>(v);
      }
      const double rel =
          expected_sum == 0.0
              ? std::fabs(*a.sum_estimate)
              : std::fabs(*a.sum_estimate - expected_sum) / expected_sum;
      result.sum_max_rel_error =
          std::max(result.sum_max_rel_error.value_or(0.0), rel);
    }
    if (a.max.has_value()) {
      any_max = true;
      max_ok &= (*a.max == result.expected_max);
    }
    if (a.consensus.has_value()) {
      any_consensus = true;
      if (!consensus_value.has_value()) consensus_value = *a.consensus;
      agree &= (*a.consensus == *consensus_value);
      valid &= std::find(inputs.begin(), inputs.end(), *a.consensus) !=
               inputs.end();
    }
  }
  if (any_count) result.count_exact = count_ok;
  if (any_estimate) result.count_max_rel_error = worst_rel;
  if (any_max) result.max_correct = max_ok;
  if (any_consensus) {
    result.consensus_agreement = agree;
    result.consensus_valid = valid;
  }
}

template <net::NodeProgram A>
class TypedSim final : public detail::SimBase {
 public:
  TypedSim(const RunConfig& config, algo::AlgoInfo info,
           const std::function<A(graph::NodeId, algo::Value)>& make_node,
           std::function<NodeAnswers(const A&)> extract,
           std::shared_ptr<void> context = nullptr)
      : config_(config),
        info_(std::move(info)),
        extract_(std::move(extract)),
        context_(std::move(context)) {
    SDN_CHECK(config_.n >= 1);
    SDN_CHECK(config_.T >= 1);

    adversary::AdversaryConfig adv_config = config_.adversary;
    adv_config.n = config_.n;
    adv_config.T = config_.T;
    adv_config.seed = util::MixSeed(config_.seed, 0xadd5e5ULL);
    adversary_ = adversary::MakeAdversary(adv_config);

    inputs_ = config_.inputs.empty() ? MakeInputs(config_.n, config_.seed)
                                     : config_.inputs;
    SDN_CHECK_MSG(static_cast<graph::NodeId>(inputs_.size()) == config_.n,
                  "inputs size mismatch");

    std::vector<A> nodes;
    nodes.reserve(static_cast<std::size_t>(config_.n));
    for (graph::NodeId u = 0; u < config_.n; ++u) {
      nodes.push_back(make_node(u, inputs_[static_cast<std::size_t>(u)]));
    }

    net::EngineOptions opts;
    opts.max_rounds = config_.max_rounds;
    opts.bandwidth =
        info_.unbounded_msgs
            ? net::BandwidthPolicy::Unbounded()
            : net::BandwidthPolicy::BoundedLogN(config_.bandwidth_multiplier);
    opts.flood_probes = config_.flood_probes;
    opts.probe_seed = util::MixSeed(config_.seed, 0x9e0be5ULL);
    opts.validate_tinterval = config_.validate_tinterval;
    opts.fail_fast_on_tinterval = config_.fail_fast_on_tinterval;
    opts.threads = config_.threads;
    opts.prefetch_topology = config_.prefetch_topology;
    opts.async_certification = config_.async_certification;
    opts.recorder = config_.recorder;
    opts.collect_metrics = config_.collect_metrics;
    opts.anomaly = config_.anomaly;
    opts.anomaly_options = config_.anomaly_options;
    opts.memory_budget = config_.memory_budget;
    engine_.emplace(std::move(nodes), *adversary_, opts);
  }

  bool Step() override { return engine_->Step(); }
  [[nodiscard]] net::RunStats Stats() const override {
    return engine_->stats();
  }
  [[nodiscard]] bool Finished() const override { return engine_->finished(); }
  [[nodiscard]] std::int64_t Round() const override {
    return engine_->current_round();
  }
  [[nodiscard]] graph::NodeId NumNodes() const override { return config_.n; }
  [[nodiscard]] bool NodeDecided(graph::NodeId u) const override {
    return engine_->node(u).HasDecided();
  }
  [[nodiscard]] double NodePublicState(graph::NodeId u) const override {
    return engine_->node(u).PublicState();
  }
  [[nodiscard]] const graph::Graph& CurrentTopology() const override {
    return engine_->last_topology();
  }

  [[nodiscard]] RunResult Grade() const override {
    RunResult result;
    result.algorithm = info_.name;
    result.adversary = adversary_->name();
    result.n = config_.n;
    result.T = config_.T;
    result.seed = config_.seed;
    result.stats = engine_->stats();
    result.tinterval_waived = !config_.validate_tinterval;
    std::vector<NodeAnswers> answers;
    answers.reserve(static_cast<std::size_t>(config_.n));
    for (graph::NodeId u = 0; u < config_.n; ++u) {
      answers.push_back(extract_(engine_->node(u)));
    }
    sdn::Grade(config_, inputs_, answers, result);
    return result;
  }

 private:
  RunConfig config_;
  algo::AlgoInfo info_;
  std::function<NodeAnswers(const A&)> extract_;
  /// Shared state the node programs reference (e.g. the hjswy SketchPool);
  /// the make_node lambda dies with MakeSim, so the sim owns it. Declared
  /// before engine_ so it outlives the programs.
  std::shared_ptr<void> context_;
  std::unique_ptr<net::Adversary> adversary_;
  std::vector<algo::Value> inputs_;
  std::optional<net::Engine<A>> engine_;
};

}  // namespace

namespace detail {

std::unique_ptr<SimBase> MakeSim(Algorithm algorithm,
                                 const RunConfig& config) {
  switch (algorithm) {
    case Algorithm::kFloodMaxKnownN:
      return std::make_unique<TypedSim<algo::FloodMaxKnownN>>(
          config, algo::FloodMaxKnownN::Info(),
          [&config](graph::NodeId u, algo::Value input) {
            return algo::FloodMaxKnownN(u, config.n, input);
          },
          [](const algo::FloodMaxKnownN& node) {
            NodeAnswers a;
            a.max = node.output();
            return a;
          });

    case Algorithm::kFloodConsensusKnownN:
      return std::make_unique<TypedSim<algo::ConsensusFloodKnownN>>(
          config, algo::ConsensusFloodKnownN::Info(),
          [&config](graph::NodeId u, algo::Value input) {
            return algo::ConsensusFloodKnownN(u, config.n, input);
          },
          [](const algo::ConsensusFloodKnownN& node) {
            NodeAnswers a;
            a.consensus = node.output();
            return a;
          });

    case Algorithm::kKloCommittee:
      return std::make_unique<TypedSim<algo::KloCommitteeProgram>>(
          config, algo::KloCommitteeProgram::Info(),
          [](graph::NodeId u, algo::Value input) {
            return algo::KloCommitteeProgram(u, input);
          },
          [](const algo::KloCommitteeProgram& node) {
            NodeAnswers a;
            if (const auto out = node.output(); out.has_value()) {
              a.count = out->count;
              a.max = out->max_value;
              a.consensus = out->consensus_value;
            }
            return a;
          });

    case Algorithm::kKloCensus1:
    case Algorithm::kKloCensusT: {
      algo::CensusOptions census = config.census;
      census.pipeline_T = (algorithm == Algorithm::kKloCensus1) ? 1 : config.T;
      return std::make_unique<TypedSim<algo::CensusProgram>>(
          config, algo::CensusProgram::InfoFor(census.pipeline_T),
          [census](graph::NodeId u, algo::Value input) {
            return algo::CensusProgram(u, input, census);
          },
          [](const algo::CensusProgram& node) {
            NodeAnswers a;
            if (const auto out = node.output(); out.has_value()) {
              a.count = out->count;
              a.max = out->max_value;
              a.consensus = out->consensus_value;
            }
            return a;
          });
    }

    case Algorithm::kHjswyEstimate:
    case Algorithm::kHjswyCensus:
    case Algorithm::kHjswyStrict: {
      algo::HjswyOptions hjswy = config.hjswy;
      hjswy.T = config.T;
      hjswy.exact_census = (algorithm == Algorithm::kHjswyCensus);
      hjswy.strict = (algorithm == Algorithm::kHjswyStrict);
      util::Rng base(util::MixSeed(config.seed, 0xb0b5ULL));
      // One structure-of-arrays float32 sketch pool shared by all nodes,
      // owned by the sim via the context handle.
      const auto pool = std::make_shared<algo::SketchPool>(
          static_cast<std::size_t>(config.n),
          algo::HjswyProgram::RequiredPoolColumns(hjswy));
      if (config.memory_budget != nullptr) {
        config.memory_budget->Get("sketch_pool")
            ->SetCurrent(static_cast<std::int64_t>(pool->bytes()));
      }
      return std::make_unique<TypedSim<algo::HjswyProgram>>(
          config, algo::HjswyProgram::InfoFor(hjswy),
          [hjswy, &base, &pool](graph::NodeId u, algo::Value input) {
            return algo::HjswyProgram(u, input, hjswy,
                                      base.Fork(static_cast<std::uint64_t>(u)),
                                      *pool);
          },
          [hjswy](const algo::HjswyProgram& node) {
            NodeAnswers a;
            if (const auto out = node.output(); out.has_value()) {
              if (hjswy.exact_census) {
                a.count = out->count;
              }
              a.count_estimate = out->count_estimate;
              if (hjswy.track_sum) a.sum_estimate = out->sum_estimate;
              a.max = out->max_value;
              a.consensus = out->consensus_value;
            }
            return a;
          },
          pool);
    }
  }
  SDN_CHECK_MSG(false, "unknown algorithm");
  return nullptr;
}

}  // namespace detail

RunResult RunAlgorithm(Algorithm algorithm, const RunConfig& config) {
  const auto sim = detail::MakeSim(algorithm, config);
  while (sim->Step()) {
  }
  return sim->Grade();
}

std::vector<RunResult> RunTrials(Algorithm algorithm, const RunConfig& config,
                                 const std::vector<std::uint64_t>& seeds,
                                 int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  // Budget: outer trial workers × inner engine lanes <= threads. With many
  // seeds the budget goes to trial-level parallelism (inner = 1, exactly the
  // pre-parallel-engine behavior); with few seeds the leftover lanes go to
  // each trial's engine. A pinned config.threads overrides the inner share.
  const int outer = std::max(
      1, std::min(threads, static_cast<int>(
                               std::min<std::size_t>(seeds.size(), 1 << 16))));
  RunConfig budgeted = config;
  if (budgeted.threads == 0) budgeted.threads = std::max(1, threads / outer);
  std::vector<RunResult> results(seeds.size());
  std::atomic<std::size_t> next{0};
  // Failure protocol: a throwing trial must not leave its slot silently
  // default-constructed while the other workers burn through the remaining
  // seeds. The first failure is recorded (with its seed), every worker stops
  // picking up new seeds, all workers are joined, and then one CheckError
  // naming the failing seed(s) is thrown.
  std::atomic<bool> failed{false};
  std::mutex failure_mutex;
  std::size_t failure_count = 0;
  std::uint64_t first_failed_seed = 0;
  std::string first_failure;
  const auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1);
      if (i >= seeds.size()) return;
      RunConfig trial = budgeted;
      trial.seed = seeds[i];
      // The flight recorder is a single-consumer sink: concurrent trials
      // writing the same lanes would interleave runs, so only the first
      // seed's trial traces (a representative run, deterministic choice).
      if (i != 0) trial.recorder = nullptr;
      try {
        results[i] = RunAlgorithm(algorithm, trial);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (failure_count++ == 0) {
          first_failed_seed = seeds[i];
          first_failure = e.what();
        }
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };
  if (outer == 1 || seeds.size() <= 1) {
    worker();
  } else {
    std::vector<std::future<void>> futures;
    futures.reserve(static_cast<std::size_t>(outer));
    for (int t = 0; t < outer; ++t) {
      futures.push_back(std::async(std::launch::async, worker));
    }
    for (auto& f : futures) f.get();  // workers trap their own exceptions
  }
  if (failure_count > 0) {
    std::ostringstream os;
    os << "RunTrials: trial with seed " << first_failed_seed
       << " failed: " << first_failure;
    if (failure_count > 1) {
      os << " (and " << (failure_count - 1) << " more trial(s) failed)";
    }
    throw util::CheckError(os.str());
  }
  return results;
}

}  // namespace sdn
