// The lock-step round engine.
//
// One Engine executes one algorithm instance (a vector of node programs)
// against one adversary. Per round it:
//   1. has its RoundDriver build G_r and stream it through the T-interval
//      checker and the flooding probes,
//   2. collects every node's OnSendInto message, enforcing the bandwidth
//      budget,
//   3. delivers to each node the messages of its G_r-neighbors,
//   4. records decisions.
// The run ends when every node has decided or `max_rounds` is hit (the
// latter sets RunStats::hit_max_rounds so truncated runs are never mistaken
// for fast convergence).
//
// Engine<A> holds only what depends on the program type: the nodes, the
// outbox, the send/deliver shard loops and the decision books. Everything
// else — topology, certification and its lane, probes, memory gauges,
// timings and the observability sinks — is the non-template
// net::RoundDriver (net/round_driver.hpp), compiled once. Messages are plain
// typed values (no serialization on the hot path), delivered zero-copy from
// a raw per-node outbox (net/program.hpp describes the layout); bit
// accounting goes through the program's static MessageBits, which must
// report the size an actual encoding would spend.
//
// Parallel execution (EngineOptions::threads): the send and deliver phases
// are embarrassingly parallel over nodes — OnSendInto(u) touches only node
// u and its outbox slot, OnReceive(u) reads the shared outbox (immutable
// during the phase) and mutates only node u. Both phases run over the
// driver's node shards, whose boundaries depend only on n; each shard fills
// its own accumulator, and the accumulators are merged in shard (=
// ascending node) order after the phase barrier. Every merged quantity is
// either per-node (disjoint writes) or an order-independent integer
// reduction, so results are bit-identical at any thread count —
// docs/PERF.md spells out the argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/adversary.hpp"
#include "net/metrics.hpp"
#include "net/program.hpp"
#include "net/round_driver.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace sdn::net {

template <NodeProgram A>
class Engine final : private AdversaryView {
 public:
  using Message = typename A::Message;

  Engine(std::vector<A> nodes, Adversary& adversary, EngineOptions options)
      : nodes_(std::move(nodes)),
        n_(static_cast<graph::NodeId>(nodes_.size())),
        driver_(adversary, *this, options) {
    SDN_CHECK(!nodes_.empty());
    SDN_CHECK_MSG(adversary.num_nodes() == n_,
                  "adversary built for " << adversary.num_nodes()
                                         << " nodes, got " << nodes_.size());
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  ~Engine() {
    // The outbox lives in the arena, which never runs element destructors;
    // message types with non-trivial state (e.g. a census shared_ptr) are
    // destroyed here, before the arena member releases its chunks. The
    // driver's certification lane never touches the outbox.
    if constexpr (!std::is_trivially_destructible_v<Message>) {
      for (Message& m : outbox_) std::destroy_at(&m);
    }
  }

  /// Executes one round. Returns false (and does nothing) once the run is
  /// over — every node decided or max_rounds executed. Throws CheckError
  /// (after recording RunStats::bandwidth_violation) when a node's message
  /// exceeds the bandwidth budget; the run is then finished and failed.
  bool Step() {
    if (!driver_.started()) Start();
    if (driver_.finished()) return false;
    const graph::Graph& g = driver_.BeginRound();
    const Round round = driver_.round();
    RunStats& stats = driver_.stats();
    const std::int64_t bit_limit = stats.bit_limit;

    // Send phase: every node's message lands in its own raw outbox slot,
    // with silentness tracked in the separate sent-flag array. Shard
    // accumulators do the message accounting; budget violations are
    // *recorded* per shard (first in node order) instead of thrown from a
    // worker — the merge below deterministically picks the lowest node and
    // fails the run from this thread.
    driver_.ForShards([&](int shard, std::int64_t begin, std::int64_t end) {
      ShardAccum& acc = shard_accum_[static_cast<std::size_t>(shard)];
      acc = ShardAccum{};
      for (std::int64_t u = begin; u < end; ++u) {
        if (Send(nodes_[static_cast<std::size_t>(u)], round, u, acc,
                 bit_limit)) {
          ++stats.sends_per_node[static_cast<std::size_t>(u)];
        }
      }
    });
    // The send window ends at the phase barrier; the shard merge below is
    // engine bookkeeping and lands in other_ns.
    driver_.EndSend();
    std::int64_t round_sent = 0;
    for (const ShardAccum& acc : shard_accum_) {
      round_sent += acc.messages_sent;
      stats.messages_sent += acc.messages_sent;
      stats.total_message_bits += acc.total_message_bits;
      stats.max_message_bits =
          std::max(stats.max_message_bits, acc.max_message_bits);
      if (!stats.bandwidth_violation.has_value() && acc.violation_node >= 0) {
        stats.bandwidth_violation =
            BandwidthViolation{acc.violation_node, round, acc.violation_bits};
      }
    }

    // Deliver phase (BeginDeliver first fails the run if the merge above
    // recorded a bandwidth violation), on the dense or the gather Inbox
    // backing (net/program.hpp). Both software-prefetch each receiver's
    // message lines before its OnReceive: the slot addresses are
    // data-dependent scatters the hardware prefetcher cannot see, and
    // prefetching them back to back buys memory-level parallelism across
    // the receiver's whole inbox. Decisions land in per-node slots plus a
    // per-shard count, reduced below instead of mutated inline.
    const bool dense = round_sent == n_;
    ++(dense ? dense_rounds_ : gather_rounds_);
    driver_.BeginDeliver();
    driver_.ForShards([&](int shard, std::int64_t begin, std::int64_t end) {
      const auto s = static_cast<std::size_t>(shard);
      ShardAccum& acc = shard_accum_[s];
      acc = ShardAccum{};
      const Message* outbox = outbox_.data();
      const unsigned char* sent = sent_.data();
      std::vector<const Message*>& slots = shard_slots_[s];
      for (std::int64_t u = begin; u < end; ++u) {
        const std::span<const graph::NodeId> ids =
            g.Neighbors(static_cast<graph::NodeId>(u));
        A& node = nodes_[static_cast<std::size_t>(u)];
        const bool was_decided = node.HasDecided();
        if (dense) {
          for (const graph::NodeId v : ids) {
            __builtin_prefetch(outbox + v, 0, 3);
          }
          acc.messages_delivered += static_cast<std::int64_t>(ids.size());
          node.OnReceive(round, Inbox<Message>(outbox, ids));
        } else {
          slots.clear();
          for (const graph::NodeId v : ids) {
            if (sent[static_cast<std::size_t>(v)]) {
              __builtin_prefetch(outbox + v, 0, 3);
              slots.push_back(outbox + v);
            }
          }
          acc.messages_delivered += static_cast<std::int64_t>(slots.size());
          node.OnReceive(round, Inbox<Message>(slots));
        }
        if (!was_decided && node.HasDecided()) {
          stats.decide_round[static_cast<std::size_t>(u)] = round;
          ++acc.decided;
        }
      }
    });
    // Deliver window ends at the barrier; merge + decision bookkeeping are
    // other_ns.
    driver_.EndDeliver();
    std::int64_t decided = 0;
    std::int64_t round_delivered = 0;
    for (const ShardAccum& acc : shard_accum_) {
      round_delivered += acc.messages_delivered;
      decided += acc.decided;
    }
    stats.messages_delivered += round_delivered;
    if (decided > 0) {
      if (stats.first_decide_round < 0) stats.first_decide_round = round;
      stats.last_decide_round = round;
      undecided_ -= decided;
    }
    driver_.EndRound(undecided_ == 0);

    std::optional<ProgramPhase> phase;
    if constexpr (ObservableProgram<A>) {
      if (driver_.recording()) phase = SamplePhase();
    }
    driver_.Observe(round_delivered, phase);
    return true;
  }

  /// Drives Step() to completion; callable once per engine.
  RunStats Run() {
    SDN_CHECK_MSG(!run_called_, "Engine::Run called twice");
    run_called_ = true;
    while (Step()) {
    }
    return stats();
  }

  /// Snapshot of the metrics so far (valid mid-run and after completion).
  [[nodiscard]] RunStats stats() const {
    std::optional<std::int64_t> algo_work;
    if constexpr (ObservableProgram<A>) {
      if (driver_.collecting_metrics()) algo_work = SamplePhase().work;
    }
    RunStats out = driver_.Snapshot(algo_work);
    out.all_decided = driver_.started() && undecided_ == 0;
    return out;
  }

  [[nodiscard]] bool finished() const { return driver_.finished(); }
  [[nodiscard]] std::int64_t current_round() const { return driver_.round(); }
  /// Topology of the most recently executed round (empty before round 1).
  [[nodiscard]] const graph::Graph& last_topology() const {
    return driver_.topology();
  }

  /// Per-path round counters (test/bench introspection). The delivery
  /// split is a pure function of the send flags: dense rounds are exactly
  /// the all-sent rounds.
  [[nodiscard]] std::int64_t dense_delivery_rounds() const {
    return dense_rounds_;
  }
  [[nodiscard]] std::int64_t gather_delivery_rounds() const {
    return gather_rounds_;
  }
  [[nodiscard]] std::int64_t topology_direct_rounds() const {
    return driver_.topology_direct_rounds();
  }
  [[nodiscard]] std::int64_t topology_delta_rounds() const {
    return driver_.topology_delta_rounds();
  }
  /// Per-subsystem byte accounting (engine-owned budget unless
  /// EngineOptions::memory_budget redirected the charges).
  [[nodiscard]] const util::MemoryBudget& memory_budget() const {
    return driver_.memory_budget();
  }

  [[nodiscard]] const A& node(graph::NodeId u) const {
    SDN_CHECK(u >= 0 && u < n_);
    return nodes_[static_cast<std::size_t>(u)];
  }
  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }

 private:
  /// Per-shard accumulator for one phase; merged in shard order after the
  /// barrier. Cache-line aligned so neighboring shards don't false-share.
  struct alignas(64) ShardAccum {
    std::int64_t messages_sent = 0;
    std::int64_t total_message_bits = 0;
    std::int64_t max_message_bits = 0;
    std::int64_t messages_delivered = 0;
    std::int64_t decided = 0;
    graph::NodeId violation_node = -1;  // first in node order within shard
    std::int64_t violation_bits = 0;
  };

  // AdversaryView:
  [[nodiscard]] std::int64_t round() const override { return driver_.round(); }
  [[nodiscard]] double PublicState(graph::NodeId u) const override {
    SDN_CHECK(u >= 0 && u < n_);
    return nodes_[static_cast<std::size_t>(u)].PublicState();
  }

  /// Composes node u's round-r message into its outbox slot, sets its sent
  /// flag and books it in `acc`; returns whether the node sent.
  bool Send(A& node, Round r, std::int64_t u, ShardAccum& acc,
            std::int64_t bit_limit) {
    Message& slot = outbox_[static_cast<std::size_t>(u)];
    const bool did = node.OnSendInto(r, slot);
    sent_[static_cast<std::size_t>(u)] = did ? 1 : 0;
    if (!did) return false;
    const auto bits = static_cast<std::int64_t>(A::MessageBits(slot));
    if (bits > bit_limit && acc.violation_node < 0) {
      acc.violation_node = static_cast<graph::NodeId>(u);
      acc.violation_bits = bits;
    }
    ++acc.messages_sent;
    acc.total_message_bits += bits;
    acc.max_message_bits = std::max(acc.max_message_bits, bits);
    return true;
  }

  /// Node 0's phase label and index, with `work` summed over all nodes.
  [[nodiscard]] ProgramPhase SamplePhase() const {
    ProgramPhase phase = nodes_[0].ObsPhase();
    phase.work = 0;
    for (const A& node : nodes_) phase.work += node.ObsPhase().work;
    return phase;
  }

  void Start() {
    driver_.Start();
    RunStats& stats = driver_.stats();
    const auto n = static_cast<std::size_t>(n_);
    stats.decide_round.assign(n, -1);
    stats.sends_per_node.assign(n, 0);
    stats.bit_limit = driver_.options().bandwidth.BitLimit(n_);
    // MakeArray value-initializes: outbox slots default-constructed, sent
    // flags zero.
    outbox_ = arena_.MakeArray<Message>(n);
    sent_ = arena_.MakeArray<unsigned char>(n);
    driver_.ChargeEngine(static_cast<std::int64_t>(n * (sizeof(Message) + 1)),
                         static_cast<std::int64_t>(n * sizeof(A)));
    shard_accum_.assign(driver_.shards(), ShardAccum{});
    shard_slots_.resize(driver_.shards());
    undecided_ = n_;
    for (std::size_t u = 0; u < n; ++u) {
      if (!nodes_[u].HasDecided()) continue;
      stats.decide_round[u] = 0;
      stats.first_decide_round = stats.last_decide_round = 0;
      --undecided_;
    }
    if (undecided_ == 0) driver_.Finish();
  }

  std::vector<A> nodes_;
  graph::NodeId n_ = 0;
  // Declared after the nodes: the driver's lanes join in its destructor,
  // before the nodes (which back this AdversaryView) are destroyed.
  RoundDriver driver_;
  bool run_called_ = false;
  std::int64_t undecided_ = 0;

  // Engine-lifetime arrays live in one arena: a single max-aligned chunk
  // per array instead of vector headers + allocator round-trips, destroyed
  // wholesale (see ~Engine for the non-trivial Message case).
  util::Arena arena_;
  std::span<Message> outbox_;      // raw slots, one per node
  std::span<unsigned char> sent_;  // 1 iff the slot is live
  std::vector<ShardAccum> shard_accum_;
  std::vector<std::vector<const Message*>> shard_slots_;

  // Delivery-path round counters (dense = all-sent rounds).
  std::int64_t dense_rounds_ = 0;
  std::int64_t gather_rounds_ = 0;
};

}  // namespace sdn::net
