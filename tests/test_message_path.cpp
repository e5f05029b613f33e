// The message path's delivery contract (docs/PERF.md).
//
// The engine backs each receiver's Inbox by a fixed rule: dense CSR
// indexing into the outbox on rounds where every node sent, a pointer
// gather over the sent flags on rounds with silent nodes. Two pins:
//
//   * Inbox oracle: a recording program checks, on every round and at
//     threads 1/2/0, that each receiver's inbox is exactly its sending
//     neighbours in last_topology(), and that the dense/gather split
//     follows the send flags exactly (dense rounds == all-sent rounds).
//   * Thread invariance across the algorithm zoo (flood baseline,
//     committee, census, hjswy), an oblivious and an adaptive adversary:
//     every statistic except wall-clock timings is bit-identical at
//     threads 1, 2 and 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "adversary/factory.hpp"
#include "core/api.hpp"
#include "net/engine.hpp"

namespace sdn {
namespace {

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.all_decided, b.stats.all_decided);
  EXPECT_EQ(a.stats.hit_max_rounds, b.stats.hit_max_rounds);
  EXPECT_EQ(a.stats.first_decide_round, b.stats.first_decide_round);
  EXPECT_EQ(a.stats.last_decide_round, b.stats.last_decide_round);
  EXPECT_EQ(a.stats.decide_round, b.stats.decide_round);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.sends_per_node, b.stats.sends_per_node);
  EXPECT_EQ(a.stats.total_message_bits, b.stats.total_message_bits);
  EXPECT_EQ(a.stats.max_message_bits, b.stats.max_message_bits);
  EXPECT_EQ(a.stats.edges_processed, b.stats.edges_processed);
  EXPECT_EQ(a.stats.messages_delivered, b.stats.messages_delivered);
  EXPECT_EQ(a.stats.flooding.probes, b.stats.flooding.probes);
  EXPECT_EQ(a.stats.flooding.completed, b.stats.flooding.completed);
  EXPECT_EQ(a.stats.flooding.max_rounds, b.stats.flooding.max_rounds);
  EXPECT_EQ(a.count_exact, b.count_exact);
  EXPECT_EQ(a.count_max_rel_error, b.count_max_rel_error);
  EXPECT_EQ(a.max_correct, b.max_correct);
  EXPECT_EQ(a.consensus_agreement, b.consensus_agreement);
  EXPECT_EQ(a.consensus_valid, b.consensus_valid);
}

void CheckThreadInvariance(Algorithm algorithm, const std::string& adversary,
                           std::int64_t max_rounds) {
  RunConfig config;
  config.n = 192;
  config.T = 2;
  config.seed = 977;
  config.adversary.kind = adversary;
  config.max_rounds = max_rounds;
  config.validate_tinterval = false;

  config.threads = 1;
  const RunResult serial = RunAlgorithm(algorithm, config);
  for (const int threads : {2, 0}) {
    config.threads = threads;
    SCOPED_TRACE(std::string(ToString(algorithm)) + " on " + adversary +
                 " threads=" + std::to_string(threads));
    ExpectIdenticalRuns(serial, RunAlgorithm(algorithm, config));
  }
}

/// Whether node `id` sends in round `r`: everyone on rounds not divisible
/// by 3, about four in five nodes on the others — a run mixes all-sent and
/// partially silent rounds, and the test recomputes the same flags.
bool SendsIn(graph::NodeId id, net::Round r) {
  return r % 3 != 0 || (id * 7 + r) % 5 != 0;
}

/// Records the sender ids of its last inbox and the backing the engine
/// chose.
struct InboxRecorder {
  struct Message {
    graph::NodeId sender = -1;
    net::Round round = 0;
  };
  using Output = std::int64_t;

  InboxRecorder(graph::NodeId node, net::Round decide_at)
      : id(node), decide_after(decide_at) {}

  bool OnSendInto(net::Round r, Message& m) {
    if (!SendsIn(id, r)) return false;
    m.sender = id;
    m.round = r;
    return true;
  }
  void OnReceive(net::Round r, net::Inbox<Message> inbox) {
    last_round = r;
    last_dense = inbox.dense();
    last_senders.clear();
    for (const Message& m : inbox) {
      stale |= m.round != r;
      last_senders.push_back(m.sender);
    }
    std::sort(last_senders.begin(), last_senders.end());
  }
  [[nodiscard]] bool HasDecided() const { return last_round >= decide_after; }
  [[nodiscard]] std::optional<Output> output() const {
    return HasDecided() ? std::optional<Output>(last_round) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return static_cast<double>(id); }
  static std::size_t MessageBits(const Message&) { return 64; }

  graph::NodeId id;
  net::Round decide_after;
  net::Round last_round = 0;
  bool last_dense = false;
  bool stale = false;  // some inbox entry carried another round's message
  std::vector<graph::NodeId> last_senders;
};

void CheckInboxOracle(const std::string& adversary, int threads) {
  SCOPED_TRACE(adversary + " threads=" + std::to_string(threads));
  // 300 nodes -> 4 shards, so threads != 1 runs the sharded deliver.
  const graph::NodeId n = 300;
  const net::Round rounds = 30;
  adversary::AdversaryConfig config;
  config.kind = adversary;
  config.n = n;
  config.T = 2;
  config.seed = 5;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<InboxRecorder> nodes;
  for (graph::NodeId u = 0; u < n; ++u) nodes.emplace_back(u, rounds);
  net::EngineOptions opts;
  opts.threads = threads;
  opts.flood_probes = 0;
  net::Engine<InboxRecorder> engine(std::move(nodes), *adv, opts);

  std::int64_t all_sent_rounds = 0;
  std::vector<graph::NodeId> expected;
  while (engine.Step()) {
    const net::Round r = engine.current_round();
    bool all_sent = true;
    for (graph::NodeId v = 0; v < n; ++v) all_sent &= SendsIn(v, r);
    all_sent_rounds += all_sent ? 1 : 0;
    const graph::Graph& g = engine.last_topology();
    for (graph::NodeId u = 0; u < n; ++u) {
      const InboxRecorder& node = engine.node(u);
      ASSERT_EQ(node.last_round, r);
      ASSERT_EQ(node.last_dense, all_sent) << "round " << r;
      expected.clear();
      for (const graph::NodeId v : g.Neighbors(u)) {
        if (SendsIn(v, r)) expected.push_back(v);
      }
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(node.last_senders, expected)
          << "receiver " << u << " round " << r;
      ASSERT_FALSE(node.stale) << "receiver " << u << " round " << r;
    }
  }
  EXPECT_EQ(engine.current_round(), rounds);
  EXPECT_EQ(engine.dense_delivery_rounds(), all_sent_rounds);
  EXPECT_EQ(engine.gather_delivery_rounds(), rounds - all_sent_rounds);
  EXPECT_GT(all_sent_rounds, 0);
  EXPECT_LT(all_sent_rounds, rounds);
}

// Oblivious: topology prefetch engages at threads != 1.
TEST(InboxOracle, ObliviousSpineEveryThreadCount) {
  for (const int threads : {1, 2, 0}) CheckInboxOracle("spine-gnp", threads);
}

TEST(InboxOracle, AdaptiveAdversaryEveryThreadCount) {
  for (const int threads : {1, 2, 0}) {
    CheckInboxOracle("adaptive-desc", threads);
  }
}

// FloodMax sends from every undecided node each round, then everyone stops
// at once: exercises both the pure dense regime and the nobody-sends tail.
TEST(MessagePath, FloodMaxOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kFloodMaxKnownN, "spine-gnp", 10'000);
}

TEST(MessagePath, FloodMaxOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kFloodMaxKnownN, "adaptive-desc",
                           10'000);
}

// hjswy nodes keep sending after deciding only until the phase ends, so
// runs mix all-sender rounds with partially-silent ones.
TEST(MessagePath, HjswyCensusOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kHjswyCensus, "spine-gnp", 100'000);
}

TEST(MessagePath, HjswyCensusOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kHjswyCensus, "adaptive-desc", 100'000);
}

TEST(MessagePath, HjswyEstimateOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kHjswyEstimate, "spine-gnp", 100'000);
}

// Baselines (truncated like in test_determinism.cpp to stay fast under
// sanitizers; truncated runs must be invariant too).
TEST(MessagePath, KloCensusOnObliviousSpine) {
  CheckThreadInvariance(Algorithm::kKloCensusT, "spine-gnp", 3'000);
}

TEST(MessagePath, KloCommitteeOnAdaptiveAdversary) {
  CheckThreadInvariance(Algorithm::kKloCommittee, "adaptive-desc", 2'000);
}

}  // namespace
}  // namespace sdn
