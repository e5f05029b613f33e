#include "net/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "adversary/factory.hpp"
#include "adversary/replay.hpp"
#include "adversary/static_adversary.hpp"
#include "algo/flood_max.hpp"
#include "graph/generators.hpp"
#include "graph/tinterval.hpp"
#include "net/trace.hpp"
#include "obs/openmetrics.hpp"
#include "obs/recorder.hpp"
#include "util/check.hpp"

namespace sdn::net {
namespace {

using adversary::StaticAdversary;
using algo::FloodMaxKnownN;

/// Minimal test program: counts how many neighbor messages it has ever seen
/// and decides after a fixed number of rounds.
class InboxCounter {
 public:
  struct Message {
    std::int32_t payload = 7;
  };
  using Output = std::int64_t;

  InboxCounter(Round decide_after, bool silent = false)
      : decide_after_(decide_after), silent_(silent) {}

  bool OnSendInto(Round, Message& m) {
    if (silent_) return false;
    m = Message{};
    return true;
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    seen_ += static_cast<std::int64_t>(inbox.size());
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(seen_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const {
    return static_cast<double>(seen_);
  }
  static std::size_t MessageBits(const Message&) { return 32; }

 private:
  Round decide_after_;
  bool silent_;
  std::int64_t seen_ = 0;
  bool decided_ = false;
};

static_assert(NodeProgram<InboxCounter>);
static_assert(NodeProgram<FloodMaxKnownN>);

TEST(Engine, DeliversToNeighborsOnly) {
  // Path 0-1-2: after 1 round, middle node saw 2 messages, ends saw 1.
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(engine.node(0).output(), 1);
  EXPECT_EQ(engine.node(1).output(), 2);
  EXPECT_EQ(engine.node(2).output(), 1);
}

TEST(Engine, SilentNodesSendNothing) {
  StaticAdversary adv(graph::Complete(4));
  std::vector<InboxCounter> nodes;
  nodes.emplace_back(1, false);
  nodes.emplace_back(1, true);
  nodes.emplace_back(1, true);
  nodes.emplace_back(1, true);
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.messages_sent, 1);
  ASSERT_EQ(stats.sends_per_node.size(), 4u);
  EXPECT_EQ(stats.sends_per_node[0], 1);
  EXPECT_EQ(stats.sends_per_node[1], 0);
  EXPECT_EQ(engine.node(0).output(), 0);  // others silent
  EXPECT_EQ(engine.node(1).output(), 1);
}

TEST(Engine, CountsBitsAndMessages) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(2));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.messages_sent, 6);
  EXPECT_EQ(stats.total_message_bits, 6 * 32);
  EXPECT_EQ(stats.max_message_bits, 32);
  EXPECT_DOUBLE_EQ(stats.AvgBitsPerMessage(), 32.0);
  EXPECT_DOUBLE_EQ(stats.BitsPerNodeRound(3), 32.0);
}

TEST(Engine, BandwidthBudgetEnforced) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1));
  EngineOptions opts;
  // 32-bit messages against a ~1.6-bit budget (floor 1) must trip the check.
  opts.bandwidth = BandwidthPolicy::BoundedLogN(1.0, 1);
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  EXPECT_THROW(engine.Run(), util::CheckError);
}

TEST(Engine, BandwidthViolationAttributedInStats) {
  // The thrown CheckError must leave the violation inspectable: the lowest
  // violating node of the violating round, with the offending message size.
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1));
  EngineOptions opts;
  opts.bandwidth = BandwidthPolicy::BoundedLogN(1.0, 1);
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  EXPECT_THROW(engine.Run(), util::CheckError);
  const RunStats stats = engine.stats();
  ASSERT_TRUE(stats.bandwidth_violation.has_value());
  EXPECT_EQ(stats.bandwidth_violation->node, 0);  // all violate; lowest wins
  EXPECT_EQ(stats.bandwidth_violation->round, 1);
  EXPECT_EQ(stats.bandwidth_violation->bits, 32);
  EXPECT_GT(stats.bandwidth_violation->bits, stats.bit_limit);
  EXPECT_TRUE(engine.finished());
  EXPECT_FALSE(stats.all_decided);
}

TEST(Engine, MaxRoundsStopsUndecidedRun) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(1000));
  EngineOptions opts;
  opts.max_rounds = 10;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.all_decided);
  EXPECT_TRUE(stats.hit_max_rounds);
  EXPECT_EQ(stats.rounds, 10);
  EXPECT_EQ(stats.decide_round[0], -1);
}

TEST(Engine, CompletedRunIsNotFlaggedTruncated) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(3, InboxCounter(2));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_FALSE(stats.hit_max_rounds);
}

TEST(Engine, DecideRoundsRecorded) {
  StaticAdversary adv(graph::Path(4));
  std::vector<InboxCounter> nodes;
  for (Round r = 1; r <= 4; ++r) nodes.emplace_back(r);
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.first_decide_round, 1);
  EXPECT_EQ(stats.last_decide_round, 4);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stats.decide_round[static_cast<std::size_t>(i)], i + 1);
  }
}

/// Steps `engine` to completion, capturing last_topology() after every
/// executed round.
template <typename Program>
std::vector<graph::Graph> StepAndCapture(Engine<Program>& engine) {
  std::vector<graph::Graph> topologies;
  while (engine.Step()) topologies.push_back(engine.last_topology());
  return topologies;
}

TEST(Engine, LastTopologyTracksEveryRound) {
  StaticAdversary adv(graph::Cycle(5));
  std::vector<InboxCounter> nodes(5, InboxCounter(3));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const std::vector<graph::Graph> trace = StepAndCapture(engine);
  ASSERT_EQ(trace.size(), 3u);
  for (const graph::Graph& g : trace) EXPECT_EQ(g, graph::Cycle(5));
}

TEST(Engine, RecordedRunReplaysIdentically) {
  // Record the topologies of one run, replay them through ReplayAdversary:
  // a deterministic algorithm must produce the identical execution.
  adversary::AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = 12;
  config.T = 2;
  config.seed = 31;
  const auto original = adversary::MakeAdversary(config);

  const auto make_nodes = [] {
    std::vector<FloodMaxKnownN> nodes;
    for (graph::NodeId u = 0; u < 12; ++u) {
      nodes.emplace_back(u, 12, static_cast<algo::Value>((u * 5) % 7));
    }
    return nodes;
  };

  Engine<FloodMaxKnownN> first(make_nodes(), *original, {});
  const std::vector<graph::Graph> trace = StepAndCapture(first);
  const RunStats first_stats = first.stats();

  adversary::ReplayAdversary replay(trace, 2);
  Engine<FloodMaxKnownN> second(make_nodes(), replay, {});
  const std::vector<graph::Graph> trace2 = StepAndCapture(second);
  const RunStats second_stats = second.stats();

  EXPECT_EQ(first_stats.rounds, second_stats.rounds);
  EXPECT_EQ(first_stats.messages_sent, second_stats.messages_sent);
  EXPECT_EQ(first_stats.total_message_bits, second_stats.total_message_bits);
  for (graph::NodeId u = 0; u < 12; ++u) {
    EXPECT_EQ(first.node(u).output(), second.node(u).output());
  }
  // Capturing a replayed run must reproduce the trace exactly.
  EXPECT_EQ(trace, trace2);
}

TEST(Engine, MeasuresFloodingTime) {
  StaticAdversary adv(graph::Path(8));
  std::vector<InboxCounter> nodes(8, InboxCounter(20));
  EngineOptions opts;
  opts.flood_probes = 3;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  // Completed probe slots respawn at staggered start rounds, so the spawn
  // count grows past the requested 3.
  EXPECT_GE(stats.flooding.probes, 3);
  EXPECT_GE(stats.flooding.completed, 3);
  // Probe from node 0 on a path takes exactly 7 rounds; no source takes more.
  EXPECT_EQ(stats.flooding.max_rounds, 7);
}

/// Fast then slow: complete graph for the first 20 rounds, then a path.
class DegradingAdversary final : public Adversary {
 public:
  explicit DegradingAdversary(graph::NodeId n)
      : fast_(graph::Complete(n)), slow_(graph::Path(n)) {}
  [[nodiscard]] graph::NodeId num_nodes() const override {
    return fast_.num_nodes();
  }
  [[nodiscard]] int interval() const override { return 1; }
  graph::Graph TopologyFor(std::int64_t round, const AdversaryView&) override {
    return round <= 20 ? fast_ : slow_;
  }
  [[nodiscard]] std::string name() const override { return "degrading"; }

 private:
  graph::Graph fast_;
  graph::Graph slow_;
};

TEST(Engine, RespawnedProbeBeyondRunEndIsNotCounted) {
  // Path(8), one probe from node 0: completes at round 7, respawns with
  // start round 14 — past max_rounds 10, so it never runs a round. The
  // summary must not count the never-started respawn as a spawned probe
  // (it would read as a phantom incomplete probe and understate d coverage).
  StaticAdversary adv(graph::Path(8));
  std::vector<InboxCounter> nodes(8, InboxCounter(1000));
  EngineOptions opts;
  opts.flood_probes = 1;
  opts.max_rounds = 10;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_EQ(stats.flooding.completed, 1);
  EXPECT_EQ(stats.flooding.probes, 1);
  EXPECT_EQ(stats.flooding.max_rounds, 7);
}

TEST(Engine, StaggeredProbesSeeDegradedFloodingTime) {
  // Probes that all start in round 1 complete in 1 round on the complete
  // phase and would report d = 1 forever; the respawned probes sample start
  // rounds deep into the path phase, where every source needs >= 8 rounds on
  // Path(16).
  DegradingAdversary adv(16);
  std::vector<InboxCounter> nodes(16, InboxCounter(300));
  EngineOptions opts;
  opts.flood_probes = 1;
  opts.max_rounds = 300;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_GT(stats.flooding.probes, 1);
  EXPECT_GE(stats.flooding.max_rounds, 8);
}

TEST(Engine, FloodMaxDecidesTrueMaxOnStaticPath) {
  const graph::NodeId n = 16;
  StaticAdversary adv(graph::Path(n));
  std::vector<FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < n; ++u) {
    nodes.emplace_back(u, n, static_cast<algo::Value>(u * 10 % 70));
  }
  Engine<FloodMaxKnownN> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.rounds, n - 1);
  for (graph::NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(engine.node(u).output(), 60);
  }
}

TEST(Engine, SingleNodeDecidesAtRoundZero) {
  StaticAdversary adv(graph::Graph(1));
  std::vector<FloodMaxKnownN> nodes;
  nodes.emplace_back(0, 1, 42);
  Engine<FloodMaxKnownN> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.all_decided);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_EQ(engine.node(0).output(), 42);
}

/// Program whose Message counts copy operations — the zero-copy delivery
/// contract says a run performs none.
class CopySpy {
 public:
  struct Message {
    std::int64_t payload = 0;
    Message() = default;
    Message(const Message& other) : payload(other.payload) { ++copies; }
    Message& operator=(const Message& other) {
      payload = other.payload;
      ++copies;
      return *this;
    }
    Message(Message&&) = default;
    Message& operator=(Message&&) = default;
    static inline std::int64_t copies = 0;
  };
  using Output = std::int64_t;

  /// `id` odd and `silent_odd_rounds` set: the node skips odd rounds, so a
  /// run mixes all-sent (dense) and partially silent (gather) rounds.
  CopySpy(graph::NodeId id, Round decide_after, bool silent_odd_rounds)
      : id_(id),
        decide_after_(decide_after),
        silent_odd_rounds_(silent_odd_rounds) {}

  bool OnSendInto(Round r, Message& m) {
    if (silent_odd_rounds_ && id_ % 2 == 1 && r % 2 == 1) return false;
    m.payload = r;
    return true;
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    for (const Message& m : inbox) sum_ += m.payload;
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(sum_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }

 private:
  graph::NodeId id_;
  Round decide_after_;
  bool silent_odd_rounds_;
  std::int64_t sum_ = 0;
  bool decided_ = false;
};

TEST(Engine, DeliveryMakesZeroMessageCopies) {
  // All-sent rounds take the dense CSR path, rounds with silent nodes the
  // pointer gather; both are zero-copy.
  for (const bool mixed : {false, true}) {
    CopySpy::Message::copies = 0;
    StaticAdversary adv(graph::Complete(6));
    std::vector<CopySpy> nodes;
    for (graph::NodeId u = 0; u < 6; ++u) nodes.emplace_back(u, 4, mixed);
    Engine<CopySpy> engine(std::move(nodes), adv, {});
    const RunStats stats = engine.Run();
    EXPECT_EQ(CopySpy::Message::copies, 0) << "mixed=" << mixed;
    // All-sent rounds deliver 6 x 5; odd mixed rounds have only the three
    // even ids sending, which reach 2 (even) or 3 (odd) receivers each.
    EXPECT_EQ(stats.messages_delivered, mixed ? 2 * 30 + 2 * 15 : 4 * 30)
        << "mixed=" << mixed;
    EXPECT_EQ(engine.dense_delivery_rounds(), mixed ? 2 : 4);
  }
}

/// Records the address and payload of every received message so a test can
/// assert that all receivers of one broadcast alias the same object.
class AliasProbe {
 public:
  struct Message {
    std::int64_t payload = 0;
  };
  using Output = std::int64_t;

  AliasProbe(graph::NodeId id, Round decide_after, bool all_send = false)
      : id_(id), decide_after_(decide_after), all_send_(all_send) {}

  bool OnSendInto(Round r, Message& m) {
    if (!all_send_ && id_ != 0) return false;
    m.payload = id_ == 0 ? r * 100 : id_ * 1000 + r;
    return true;
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    if (inbox.dense()) ++dense_rounds_;
    for (const Message& m : inbox) {
      seen_addrs_.push_back(&m);
      seen_payloads_.push_back(m.payload);
    }
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(0) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }

  [[nodiscard]] const std::vector<const void*>& seen_addrs() const {
    return seen_addrs_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& seen_payloads() const {
    return seen_payloads_;
  }
  [[nodiscard]] std::int64_t dense_rounds() const { return dense_rounds_; }

 private:
  graph::NodeId id_;
  Round decide_after_;
  bool all_send_;
  std::vector<const void*> seen_addrs_;
  std::vector<std::int64_t> seen_payloads_;
  std::int64_t dense_rounds_ = 0;
  bool decided_ = false;
};

TEST(Engine, ReceiversShareOneMessageInstance) {
  // Star: node 0 broadcasts to 5 leaves. Every leaf's inbox entry must be
  // the very same object (zero-copy aliasing), and since OnReceive only gets
  // const access, the payload each leaf reads must be the pristine one.
  std::vector<graph::Edge> edges;
  for (graph::NodeId v = 1; v <= 5; ++v) edges.emplace_back(0, v);
  StaticAdversary adv(graph::Graph(6, edges));
  std::vector<AliasProbe> nodes;
  for (graph::NodeId u = 0; u < 6; ++u) nodes.emplace_back(u, 3);
  Engine<AliasProbe> engine(std::move(nodes), adv, {});
  (void)engine.Run();
  for (Round r = 1; r <= 3; ++r) {
    const auto i = static_cast<std::size_t>(r - 1);
    ASSERT_EQ(engine.node(1).seen_addrs().size(), 3u);
    const void* addr = engine.node(1).seen_addrs()[i];
    for (graph::NodeId u = 1; u <= 5; ++u) {
      ASSERT_EQ(engine.node(u).seen_addrs().size(), 3u);
      EXPECT_EQ(engine.node(u).seen_addrs()[i], addr);
      EXPECT_EQ(engine.node(u).seen_payloads()[i], r * 100);
    }
  }
  // Only node 0 sends, so every round stays on the sparse gather path.
  for (graph::NodeId u = 0; u < 6; ++u) {
    EXPECT_EQ(engine.node(u).dense_rounds(), 0);
  }
}

TEST(Engine, DenseDeliveryAliasesOutboxSlots) {
  // Complete(4) with everyone sending: each round is an all-sender round,
  // so every round takes the dense CSR path. The aliasing contract is the
  // same as the gather path's: every receiver of sender v's round-r
  // message reads the very same object (the sender's outbox slot), zero
  // copies.
  StaticAdversary adv(graph::Complete(4));
  std::vector<AliasProbe> nodes;
  for (graph::NodeId u = 0; u < 4; ++u) {
    nodes.emplace_back(u, 3, /*all_send=*/true);
  }
  Engine<AliasProbe> engine(std::move(nodes), adv, {});
  (void)engine.Run();
  for (graph::NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(engine.node(u).dense_rounds(), 3);
    ASSERT_EQ(engine.node(u).seen_addrs().size(), 9u);  // 3 neighbors x 3
  }
  // Group observed addresses by payload (payloads are unique per
  // sender-round); all receivers of a payload must have seen one address.
  for (Round r = 1; r <= 3; ++r) {
    for (graph::NodeId v = 0; v < 4; ++v) {
      const std::int64_t want = v == 0 ? r * 100 : v * 1000 + r;
      const void* addr = nullptr;
      int receivers = 0;
      for (graph::NodeId u = 0; u < 4; ++u) {
        if (u == v) continue;
        const auto& payloads = engine.node(u).seen_payloads();
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          if (payloads[i] != want) continue;
          ++receivers;
          if (addr == nullptr) addr = engine.node(u).seen_addrs()[i];
          EXPECT_EQ(engine.node(u).seen_addrs()[i], addr)
              << "sender " << v << " round " << r;
        }
      }
      EXPECT_EQ(receivers, 3) << "sender " << v << " round " << r;
    }
  }
}

/// Sends from everyone on even rounds but only from even ids on odd rounds,
/// so a run mixes dense (all-sender) and sparse (gather) rounds. A silent
/// round poisons the slot: its stale contents must never reach an inbox.
class Alternator {
 public:
  struct Message {
    std::int64_t payload = 0;
  };
  using Output = std::int64_t;

  Alternator(graph::NodeId id, Round decide_after)
      : id_(id), decide_after_(decide_after) {}

  bool OnSendInto(Round r, Message& m) {
    if (r % 2 == 1 && id_ % 2 == 1) {
      m.payload = -1;  // deliberately poison the slot: must never be seen
      return false;
    }
    m.payload = r * 31 + id_;
    return true;
  }
  void OnReceive(Round r, Inbox<Message> inbox) {
    for (const Message& m : inbox) {
      SDN_CHECK(m.payload >= 0);  // a poisoned slot leaked into an inbox
      sum_ += m.payload;
    }
    if (r >= decide_after_) decided_ = true;
  }
  [[nodiscard]] bool HasDecided() const { return decided_; }
  [[nodiscard]] std::optional<Output> output() const {
    return decided_ ? std::optional<Output>(sum_) : std::nullopt;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 64; }

 private:
  graph::NodeId id_;
  Round decide_after_;
  std::int64_t sum_ = 0;
  bool decided_ = false;
};

/// Promises T=2 but alternates between edge-disjoint connected graphs, so no
/// 2-window has a stable connected subgraph.
class FlickerAdversary final : public Adversary {
 public:
  [[nodiscard]] graph::NodeId num_nodes() const override { return 4; }
  [[nodiscard]] int interval() const override { return 2; }
  graph::Graph TopologyFor(std::int64_t round, const AdversaryView&) override {
    static const std::vector<graph::Edge> odd = {{0, 1}, {1, 2}, {2, 3}};
    static const std::vector<graph::Edge> even = {{0, 2}, {0, 3}, {1, 3}};
    return graph::Graph(
        4, std::span<const graph::Edge>(round % 2 == 1 ? odd : even));
  }
  [[nodiscard]] std::string name() const override { return "flicker"; }
};

TEST(Engine, ValidationOffIsReportedHonestly) {
  // With validation off the engine must not claim the promise held: ok stays
  // vacuously true but tinterval_validated says no check ran.
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  EngineOptions opts;
  opts.validate_tinterval = false;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_FALSE(stats.tinterval_validated);
  EXPECT_TRUE(stats.tinterval_ok);
}

TEST(Engine, ValidationOnCatchesBrokenPromise) {
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_validated);
  EXPECT_FALSE(stats.tinterval_ok);
}

TEST(Engine, RunTwiceRejected) {
  StaticAdversary adv(graph::Path(2));
  std::vector<InboxCounter> nodes(2, InboxCounter(1));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  (void)engine.Run();
  EXPECT_THROW(engine.Run(), util::CheckError);
}

/// Runs one program per node, built by `make(u)`, on Cycle(200) — 3
/// shards, so threads = 2 genuinely takes the pool path — at threads 1, 2
/// and hardware. Every stat except wall-clock timings, and every output,
/// must match the serial run.
template <typename Make>
void CheckThreadInvariance(Make make) {
  using Node = decltype(make(graph::NodeId{0}));
  const graph::NodeId n = 200;
  const auto run = [&](int threads) {
    StaticAdversary adv(graph::Cycle(n));
    std::vector<Node> nodes;
    for (graph::NodeId u = 0; u < n; ++u) nodes.push_back(make(u));
    EngineOptions opts;
    opts.threads = threads;
    Engine<Node> engine(std::move(nodes), adv, opts);
    const RunStats stats = engine.Run();
    std::vector<std::optional<typename Node::Output>> outputs;
    for (graph::NodeId u = 0; u < n; ++u) {
      outputs.push_back(engine.node(u).output());
    }
    return std::pair(stats, outputs);
  };
  const auto [serial, serial_out] = run(1);
  for (const int threads : {2, 0}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto [stats, out] = run(threads);
    EXPECT_EQ(serial_out, out);
    EXPECT_EQ(serial.rounds, stats.rounds);
    EXPECT_EQ(serial.messages_sent, stats.messages_sent);
    EXPECT_EQ(serial.messages_delivered, stats.messages_delivered);
    EXPECT_EQ(serial.total_message_bits, stats.total_message_bits);
    EXPECT_EQ(serial.max_message_bits, stats.max_message_bits);
    EXPECT_EQ(serial.decide_round, stats.decide_round);
    EXPECT_EQ(serial.sends_per_node, stats.sends_per_node);
    EXPECT_EQ(serial.flooding.probes, stats.flooding.probes);
    EXPECT_EQ(serial.flooding.max_rounds, stats.flooding.max_rounds);
  }
}

TEST(Engine, ThreadsLeaveRunsUnchanged) {
  CheckThreadInvariance(
      [](graph::NodeId u) { return InboxCounter(25, u % 7 == 3); });
  CheckThreadInvariance([](graph::NodeId u) { return CopySpy(u, 25, true); });
  CheckThreadInvariance(
      [](graph::NodeId u) { return AliasProbe(u, 25, u % 2 == 0); });
  CheckThreadInvariance([](graph::NodeId u) { return Alternator(u, 25); });
}

/// Counts its OnSendInto calls and checks the per-node call order: round
/// r's send follows round r-1's receive and precedes round r's receive.
class SendCounter {
 public:
  struct Message {
    std::int32_t payload = 0;
  };
  using Output = std::int64_t;

  explicit SendCounter(Round decide_after) : decide_after_(decide_after) {}

  bool OnSendInto(Round r, Message& m) {
    ++sends_;
    in_order_ = in_order_ && r == last_send_ + 1 && r == last_receive_ + 1;
    last_send_ = r;
    m.payload = 1;
    return true;
  }
  void OnReceive(Round r, Inbox<Message>) {
    in_order_ = in_order_ && r == last_send_;
    last_receive_ = r;
  }
  [[nodiscard]] bool HasDecided() const {
    return last_receive_ >= decide_after_;
  }
  [[nodiscard]] std::optional<Output> output() const {
    if (!HasDecided()) return std::nullopt;
    return sends_;
  }
  [[nodiscard]] double PublicState() const { return 0.0; }
  static std::size_t MessageBits(const Message&) { return 32; }

  [[nodiscard]] std::int64_t sends() const { return sends_; }
  [[nodiscard]] Round last_send() const { return last_send_; }
  [[nodiscard]] bool in_order() const { return in_order_; }

 private:
  Round decide_after_;
  std::int64_t sends_ = 0;
  Round last_send_ = 0;
  Round last_receive_ = 0;
  bool in_order_ = true;
};

TEST(Engine, SendsOncePerExecutedRoundAndNeverPastTheEnd) {
  // Every node composes exactly one message per executed round, and none
  // for round rounds+1 — whether the run ends by decision or at
  // max_rounds, on an oblivious adversary, at any thread count.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 192;
  config.T = 2;
  config.seed = 21;
  for (const int threads : {1, 2, 0}) {
    for (const std::int64_t max_rounds : {std::int64_t{1000}, std::int64_t{15}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " max_rounds=" + std::to_string(max_rounds));
      const auto adv = adversary::MakeAdversary(config);
      std::vector<SendCounter> nodes(192, SendCounter(20));
      EngineOptions opts;
      opts.threads = threads;
      opts.max_rounds = max_rounds;
      Engine<SendCounter> engine(std::move(nodes), *adv, opts);
      const RunStats stats = engine.Run();
      EXPECT_EQ(stats.rounds, std::min<std::int64_t>(20, max_rounds));
      for (graph::NodeId u = 0; u < 192; ++u) {
        const SendCounter& node = engine.node(u);
        ASSERT_EQ(node.sends(), stats.rounds) << "node " << u;
        ASSERT_EQ(node.last_send(), stats.rounds) << "node " << u;
        ASSERT_TRUE(node.in_order()) << "node " << u;
        ASSERT_EQ(stats.sends_per_node[static_cast<std::size_t>(u)],
                  stats.rounds);
      }
    }
  }
}

TEST(Engine, WrongSizeAdversaryRejected) {
  StaticAdversary adv(graph::Path(3));
  std::vector<InboxCounter> nodes(2, InboxCounter(1));
  EXPECT_THROW((Engine<InboxCounter>(std::move(nodes), adv, {})),
               util::CheckError);
}

// ---------------------------------------------------------------------------
// Topology delta gating.

/// Oblivious-adversary view for driving a second adversary instance
/// outside the engine (the from-scratch oracle).
class ZeroView final : public AdversaryView {
 public:
  explicit ZeroView(graph::NodeId n) : n_(n) {}
  [[nodiscard]] std::int64_t round() const override { return 1; }
  [[nodiscard]] double PublicState(graph::NodeId) const override { return 0; }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }

 private:
  graph::NodeId n_;
};

TEST(Engine, ConsumersSeeEveryDeltaOnDeltaPath) {
  // Regression for the delta-gating audit: the direct topology path skips
  // delta production unless a consumer needs one, and the streaming
  // T-interval checker, the topology trace and the flight recorder are all
  // such consumers. Attach all three at once (the engine asserts
  // internally that every consumer round has a delta), check every round's
  // topology against a from-scratch TopologyFor replay of a second
  // adversary instance, and check that the recorded trace reads back as
  // the same sequence.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 32;
  config.T = 2;
  config.seed = 77;
  const auto adv = adversary::MakeAdversary(config);
  const auto oracle = adversary::MakeAdversary(config);
  const ZeroView view(32);
  const std::string path = (std::filesystem::temp_directory_path() /
                            "sdn_test_engine_consumers.trace")
                               .string();
  obs::FlightRecorder rec;
  TraceRecorder trace(path, 32, 2, /*keyframe_every=*/8);
  std::vector<InboxCounter> nodes(32, InboxCounter(40));
  EngineOptions opts;
  opts.recorder = &rec;
  opts.record_trace = &trace;
  Engine<InboxCounter> engine(std::move(nodes), *adv, opts);
  const std::vector<graph::Graph> seen = StepAndCapture(engine);
  trace.Close();
  const RunStats stats = engine.stats();
  EXPECT_TRUE(stats.tinterval_validated);
  EXPECT_TRUE(stats.tinterval_ok);
  ASSERT_EQ(static_cast<std::int64_t>(seen.size()), stats.rounds);
  for (std::size_t r = 0; r < seen.size(); ++r) {
    EXPECT_EQ(seen[r],
              oracle->TopologyFor(static_cast<std::int64_t>(r) + 1, view))
        << "round " << r + 1;
  }
  EXPECT_EQ(LoadTrace(path).rounds, seen);
  std::filesystem::remove(path);
  EXPECT_GT(rec.total_emitted(), 0u);
}

// ---------------------------------------------------------------------------
// Always-on certification (PR 7): certified-T reporting, fail-fast, and the
// composition fast path.

TEST(Engine, CertifiedTAndFirstBadWindowRecorded) {
  // FlickerAdversary keeps every round connected (T=1 holds) but adjacent
  // rounds share no edges, so no 2-window certifies: the run must report
  // the observed level, not just a boolean.
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  Engine<InboxCounter> engine(std::move(nodes), adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_validated);
  EXPECT_FALSE(stats.tinterval_ok);
  EXPECT_EQ(stats.certified_T, 1);
  EXPECT_EQ(stats.tinterval_first_bad_window, 0);
}

TEST(Engine, ReportsWhichCheckerPathRanAndWhy) {
  // The checker path is a function of the adversary alone: a
  // composition-publishing adversary certifies on the witness path with or
  // without a flight recorder or a trace recorder attached, and RunStats,
  // OneLine and the OpenMetrics info series all say so.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 32;
  config.T = 2;
  config.seed = 5;
  const auto run = [&](obs::FlightRecorder* rec, TraceRecorder* trace,
                       bool validate) {
    const auto adv = adversary::MakeAdversary(config);
    std::vector<InboxCounter> nodes(32, InboxCounter(8));
    EngineOptions opts;
    opts.recorder = rec;
    opts.record_trace = trace;
    opts.validate_tinterval = validate;
    Engine<InboxCounter> engine(std::move(nodes), *adv, opts);
    return engine.Run();
  };
  const RunStats plain = run(nullptr, nullptr, true);
  EXPECT_EQ(plain.checker_path, CheckerPath::kComposition);
  EXPECT_EQ(plain.checker_path_reason, "adversary publishes a composition");

  obs::FlightRecorder rec;
  const RunStats traced = run(&rec, nullptr, true);
  EXPECT_EQ(traced.checker_path, CheckerPath::kComposition);
  EXPECT_EQ(traced.checker_path_reason, "adversary publishes a composition");
  EXPECT_EQ(traced.certified_T, plain.certified_T);
  EXPECT_NE(
      traced.OneLine().find(
          "checker=composition(adversary publishes a composition)"),
      std::string::npos)
      << traced.OneLine();
  const obs::InfoSeries info[] = {traced.CheckerInfo()};
  EXPECT_NE(obs::RenderOpenMetrics({}, {}, {}, info)
                .find("# TYPE sdn_checker info\n"
                      "sdn_checker_info{path=\"composition\","
                      "reason=\"adversary publishes a composition\"} 1\n"),
            std::string::npos);

  const std::string path = (std::filesystem::temp_directory_path() /
                            "sdn_test_engine_checker_path.trace")
                               .string();
  {
    TraceRecorder trace(path, 32, 2, /*keyframe_every=*/8);
    const RunStats recorded = run(nullptr, &trace, true);
    trace.Close();
    EXPECT_EQ(recorded.checker_path, CheckerPath::kComposition);
    EXPECT_EQ(recorded.certified_T, plain.certified_T);
  }
  std::filesystem::remove(path);

  const RunStats off = run(nullptr, nullptr, false);
  EXPECT_EQ(off.checker_path, CheckerPath::kOff);
  EXPECT_EQ(off.checker_path_reason, "validation disabled");

  FlickerAdversary flicker;  // publishes no composition
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  Engine<InboxCounter> engine(std::move(nodes), flicker, {});
  const RunStats general = engine.Run();
  EXPECT_EQ(general.checker_path, CheckerPath::kGeneral);
  EXPECT_EQ(general.checker_path_reason, "adversary publishes no composition");
}

TEST(Engine, CertifiedTEqualsTOnHonestRuns) {
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 32;
  config.T = 3;
  config.seed = 9;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<InboxCounter> nodes(32, InboxCounter(20));
  Engine<InboxCounter> engine(std::move(nodes), *adv, {});
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_ok);
  EXPECT_EQ(stats.certified_T, 3);
  EXPECT_EQ(stats.tinterval_first_bad_window, -1);
  EXPECT_EQ(stats.min_stable_forest, 31);
}

TEST(Engine, FailFastOnTIntervalThrowsAndRecordsWindow) {
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(4));
  EngineOptions opts;
  opts.fail_fast_on_tinterval = true;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  EXPECT_THROW(engine.Run(), util::CheckError);
  // Mirrors the bandwidth-violation shape: the books are closed before the
  // throw, so the violation is attributable from the stats snapshot.
  const RunStats stats = engine.stats();
  EXPECT_EQ(stats.tinterval_first_bad_window, 0);
  EXPECT_FALSE(stats.tinterval_ok);
}

TEST(Engine, FailFastUnderAsyncCertificationMatchesSerialAbort) {
  // fail_fast_on_tinterval pins the checker to the synchronous path even
  // when async_certification is requested (an async verdict would surface
  // at stats() instead of aborting the violating round): the parallel
  // async-requested run must throw at exactly the serial engine's abort
  // round with the same violating window in the books.
  const auto run_fail_fast = [](bool async_cert, int threads) {
    FlickerAdversary adv;
    std::vector<InboxCounter> nodes(4, InboxCounter(4));
    EngineOptions opts;
    opts.fail_fast_on_tinterval = true;
    opts.async_certification = async_cert;
    opts.threads = threads;
    Engine<InboxCounter> engine(std::move(nodes), adv, opts);
    EXPECT_THROW(engine.Run(), util::CheckError);
    return engine.stats();
  };
  const RunStats serial = run_fail_fast(/*async_cert=*/false, /*threads=*/1);
  const RunStats parallel = run_fail_fast(/*async_cert=*/true, /*threads=*/2);
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.tinterval_first_bad_window,
            parallel.tinterval_first_bad_window);
  EXPECT_EQ(parallel.tinterval_first_bad_window, 0);
  EXPECT_FALSE(parallel.tinterval_ok);
  EXPECT_EQ(serial.messages_delivered, parallel.messages_delivered);
}

TEST(Engine, FailFastIsInertOnHonestRuns) {
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 24;
  config.T = 2;
  config.seed = 3;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<InboxCounter> nodes(24, InboxCounter(20));
  EngineOptions opts;
  opts.fail_fast_on_tinterval = true;
  Engine<InboxCounter> engine(std::move(nodes), *adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_TRUE(stats.tinterval_ok);
  EXPECT_EQ(stats.certified_T, 2);
}

TEST(Engine, CompositionPathMatchesDeltaCheckerOracle) {
  // The engine certifies composition-publishing adversaries by witness
  // identity, without materializing a delta. Oracle: a second instance of
  // the same adversary streams its DeltaFor sequence through the general
  // delta-driven checker, which must report the same verdict in every
  // field, for every composition-publishing kind and T in {1, 2, 3}.
  const graph::NodeId n = 48;
  const ZeroView view(n);
  int checked_kinds = 0;
  for (const std::string& kind : adversary::KnownAdversaryKinds()) {
    for (const int T : {1, 2, 3}) {
      adversary::AdversaryConfig config;
      config.kind = kind;
      config.n = n;
      config.T = T;
      config.seed = 21;
      const auto adv = adversary::MakeAdversary(config);
      if (!adv->has_composition()) continue;
      if (T == 1) ++checked_kinds;
      SCOPED_TRACE(kind + " T=" + std::to_string(T));
      std::vector<InboxCounter> nodes(static_cast<std::size_t>(n),
                                      InboxCounter(40));
      Engine<InboxCounter> engine(std::move(nodes), *adv, {});
      const RunStats witness = engine.Run();

      const auto oracle_adv = adversary::MakeAdversary(config);
      graph::TIntervalChecker oracle(n, T);
      graph::DynGraph dyn(n);
      graph::TopologyDelta delta;
      for (std::int64_t r = 1; r <= witness.rounds; ++r) {
        oracle_adv->DeltaFor(r, view, dyn.View(), delta);
        dyn.Apply(delta);
        (void)oracle.PushDelta(delta);
      }
      EXPECT_TRUE(witness.tinterval_validated);
      EXPECT_EQ(witness.tinterval_ok, oracle.ok());
      EXPECT_EQ(witness.certified_T, oracle.certified_T());
      EXPECT_EQ(witness.tinterval_first_bad_window, oracle.first_bad_window());
      EXPECT_EQ(witness.min_stable_forest, oracle.min_stable_forest());
    }
  }
  EXPECT_GT(checked_kinds, 0);
}

TEST(Engine, RecorderKeepsTheEnginePath) {
  // Observation never steers the engine: with a flight recorder attached,
  // a spine-gnp run at threads = 2 still certifies on the composition path
  // on the async certification lane (aux_validate_ns > 0), exactly like the
  // unrecorded run, and the recorder's checker track carries the witness
  // path's state (stable edge count -1, certified T) stamped with the
  // certified round.
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = 64;
  config.T = 2;
  config.seed = 8;
  const auto run = [&](obs::FlightRecorder* rec) {
    const auto adv = adversary::MakeAdversary(config);
    std::vector<InboxCounter> nodes(64, InboxCounter(30));
    EngineOptions opts;
    opts.threads = 2;
    opts.recorder = rec;
    Engine<InboxCounter> engine(std::move(nodes), *adv, opts);
    return engine.Run();
  };
  const RunStats plain = run(nullptr);
  obs::FlightRecorder rec;
  const RunStats traced = run(&rec);
  for (const RunStats* s : {&plain, &traced}) {
    EXPECT_EQ(s->checker_path, CheckerPath::kComposition);
    EXPECT_GT(s->timings.aux_validate_ns, 0);
    EXPECT_EQ(s->certified_T, 2);
  }
  EXPECT_EQ(plain.messages_delivered, traced.messages_delivered);
  int windows = 0;
  for (const obs::Event& e : rec.Drain()) {
    if (e.kind != obs::EventKind::kCheckerWindow) continue;
    ++windows;
    EXPECT_EQ(e.a, -1);  // no materialized intersection on the witness path
    EXPECT_EQ(e.b, 1);
    EXPECT_EQ(e.c, 2);
    EXPECT_GE(e.round, 1);
    EXPECT_LE(e.round, traced.rounds);
  }
  EXPECT_GE(windows, 1);
}

TEST(Engine, CertRegressionFiresUnderAsyncCertification) {
  // The anomaly plane reads the certification lane's published sample, so
  // a T-violating adversary trips kCertRegression with certification off
  // the critical path too. The lane trails the round loop by at most its
  // queue depth, so a 40-round run is long enough for the sample of the
  // first bad window to reach an Observe.
  FlickerAdversary adv;
  std::vector<InboxCounter> nodes(4, InboxCounter(40));
  EngineOptions opts;
  opts.threads = 2;
  opts.async_certification = true;
  opts.collect_metrics = true;
  opts.anomaly = true;
  Engine<InboxCounter> engine(std::move(nodes), adv, opts);
  const RunStats stats = engine.Run();
  EXPECT_GT(stats.timings.aux_validate_ns, 0);  // the lane certified
  EXPECT_FALSE(stats.tinterval_ok);
  EXPECT_EQ(stats.certified_T, 1);
  const bool fired = std::any_of(
      stats.anomalies.begin(), stats.anomalies.end(),
      [](const obs::AnomalyRecord& r) {
        return r.rule == obs::AnomalyRule::kCertRegression;
      });
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace sdn::net
