// Tests for the delta-based incremental topology pipeline: TopologyDelta /
// DynGraph semantics, the Adversary::DeltaFor contract across every factory
// kind, the delta-driven streaming T-interval checker, and the engine's
// per-round topology against a from-scratch TopologyFor oracle.
#include "graph/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "adversary/factory.hpp"
#include "algo/flood_max.hpp"
#include "graph/generators.hpp"
#include "graph/tinterval.hpp"
#include "net/adversary.hpp"
#include "net/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::graph {
namespace {

TEST(DiffSorted, ComputesAddedAndRemoved) {
  const Graph from(5, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}});
  const Graph to(5, std::vector<Edge>{{0, 1}, {2, 3}, {3, 4}, {0, 4}});
  const TopologyDelta delta = Diff(from, to);
  EXPECT_EQ(delta.added, (std::vector<Edge>{{0, 4}, {2, 3}}));
  EXPECT_EQ(delta.removed, (std::vector<Edge>{{1, 2}}));
  EXPECT_EQ(delta.size(), 3);
}

TEST(DiffSorted, IdenticalGraphsGiveEmptyDelta) {
  const Graph g = Path(6);
  EXPECT_TRUE(Diff(g, g).empty());
}

TEST(DiffSorted, FromEmptyIsAllAdded) {
  const Graph g = Star(5);
  const TopologyDelta delta = Diff(Graph(5), g);
  EXPECT_EQ(delta.added.size(), static_cast<std::size_t>(g.num_edges()));
  EXPECT_TRUE(delta.removed.empty());
}

TEST(CheckDeltaWellFormed, RejectsUnsortedOverlapOrOutOfRange) {
  TopologyDelta unsorted;
  unsorted.added = {{2, 3}, {0, 1}};
  EXPECT_THROW(CheckDeltaWellFormed(unsorted, 5), util::CheckError);

  TopologyDelta dup;
  dup.removed = {{0, 1}, {0, 1}};
  EXPECT_THROW(CheckDeltaWellFormed(dup, 5), util::CheckError);

  TopologyDelta overlap;
  overlap.added = {{0, 1}};
  overlap.removed = {{0, 1}};
  EXPECT_THROW(CheckDeltaWellFormed(overlap, 5), util::CheckError);

  TopologyDelta out_of_range;
  out_of_range.added = {{0, 7}};
  EXPECT_THROW(CheckDeltaWellFormed(out_of_range, 5), util::CheckError);

  TopologyDelta ok;
  ok.added = {{0, 1}, {1, 2}};
  ok.removed = {{0, 2}};
  EXPECT_NO_THROW(CheckDeltaWellFormed(ok, 5));
}

TEST(DynGraph, EmptyDeltaIsIdentityInPlace) {
  DynGraph dyn(Path(8));
  const Graph* before = &dyn.View();
  const Graph& after = dyn.Apply(TopologyDelta{});
  EXPECT_EQ(before, &after);
  EXPECT_EQ(after, Path(8));
}

TEST(DynGraph, ApplyRejectsContractViolationsAndLeavesGraphUntouched) {
  DynGraph dyn(Path(5));  // edges (0,1)(1,2)(2,3)(3,4)
  const Graph snapshot = dyn.View();

  TopologyDelta removes_absent;
  removes_absent.removed = {{0, 4}};
  EXPECT_THROW(dyn.Apply(removes_absent), util::CheckError);
  EXPECT_EQ(dyn.View(), snapshot);

  TopologyDelta adds_present;
  adds_present.added = {{1, 2}};
  EXPECT_THROW(dyn.Apply(adds_present), util::CheckError);
  EXPECT_EQ(dyn.View(), snapshot);
}

/// Random edit scripts: DynGraph under deltas == Graph rebuilt from scratch,
/// including the CSR internals (operator== compares edges, adjacency and
/// offsets member-wise) and the Neighbors/Degree views.
TEST(DynGraph, RandomEditScriptsMatchFromScratch) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 24;
    Graph reference = Gnp(n, 0.15, rng);
    DynGraph dyn(reference);
    for (int step = 0; step < 25; ++step) {
      // Random delta: flip a handful of node pairs.
      TopologyDelta delta;
      for (int k = 0; k < 6; ++k) {
        const auto u =
            static_cast<NodeId>(rng.UniformU64(static_cast<std::uint64_t>(n)));
        auto v = static_cast<NodeId>(
            rng.UniformU64(static_cast<std::uint64_t>(n) - 1));
        if (v >= u) ++v;
        const Edge e(u, v);
        if (reference.HasEdge(e.u, e.v)) {
          delta.removed.push_back(e);
        } else {
          delta.added.push_back(e);
        }
      }
      const auto dedup = [](std::vector<Edge>& edges) {
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      };
      dedup(delta.added);
      dedup(delta.removed);

      std::vector<Edge> next(reference.Edges().begin(),
                             reference.Edges().end());
      for (const Edge& e : delta.removed) {
        next.erase(std::find(next.begin(), next.end(), e));
      }
      next.insert(next.end(), delta.added.begin(), delta.added.end());
      reference = Graph(n, next);

      const Graph& incremental = dyn.Apply(delta);
      ASSERT_EQ(incremental, reference) << "trial " << trial << " step "
                                        << step;
      for (NodeId u = 0; u < n; ++u) {
        ASSERT_EQ(incremental.Degree(u), reference.Degree(u));
      }
    }
  }
}

TEST(VerifySortedEdges, ToggleGatesTheSortednessScan) {
  const bool old = VerifySortedEdges();
  SetVerifySortedEdges(true);
  std::vector<Edge> unsorted{{2, 3}, {0, 1}};
  EXPECT_THROW(Graph(4, std::move(unsorted), Graph::SortedEdges{}),
               util::CheckError);
  // Range checking is not gated: an out-of-range edge throws regardless.
  SetVerifySortedEdges(false);
  std::vector<Edge> out_of_range{{0, 9}};
  EXPECT_THROW(Graph(4, std::move(out_of_range), Graph::SortedEdges{}),
               util::CheckError);
  SetVerifySortedEdges(old);
}

class ZeroView final : public net::AdversaryView {
 public:
  explicit ZeroView(NodeId n) : n_(n) {}
  [[nodiscard]] std::int64_t round() const override { return 1; }
  [[nodiscard]] double PublicState(NodeId) const override { return 0.0; }
  [[nodiscard]] NodeId num_nodes() const override { return n_; }

 private:
  NodeId n_;
};

/// The DeltaFor contract, property-tested across every factory kind × seeds
/// × T ∈ {1, 2, 4}: driving a DynGraph by DeltaFor must reproduce, round by
/// round, exactly the graphs TopologyFor builds from scratch (two instances
/// of the same adversary, identical seeds, so RNG streams must line up too).
TEST(AdversaryDelta, MatchesTopologyForEveryKindSeedAndT) {
  const NodeId n = 32;
  const ZeroView view(n);
  for (const std::string& kind : adversary::KnownAdversaryKinds()) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      for (const int T : {1, 2, 4}) {
        adversary::AdversaryConfig config;
        config.kind = kind;
        config.n = n;
        config.T = T;
        config.seed = seed;
        const auto scratch = adversary::MakeAdversary(config);
        const auto incremental = adversary::MakeAdversary(config);
        DynGraph dyn(n);
        TopologyDelta delta;
        for (std::int64_t r = 1; r <= 30; ++r) {
          const Graph expected = scratch->TopologyFor(r, view);
          incremental->DeltaFor(r, view, dyn.View(), delta);
          const Graph& got = dyn.Apply(delta);
          ASSERT_EQ(got, expected)
              << kind << " seed=" << seed << " T=" << T << " round=" << r;
        }
      }
    }
  }
}

/// The RoundEdgesInto contract, property-tested the same way: when an
/// adversary takes the direct-assignment fast path (filling a DynGraph's
/// EditBuffer with the round's full edge list), CommitEdges must reproduce
/// exactly the graphs TopologyFor builds from scratch. Adversaries that
/// decline the fast path (return false) fall back to TopologyFor on the same
/// instance, which keeps their RNG streams aligned for later rounds.
TEST(AdversaryFastPath, RoundEdgesIntoMatchesTopologyForEveryKindSeedAndT) {
  const NodeId n = 32;
  const ZeroView view(n);
  int fast_rounds = 0;
  for (const std::string& kind : adversary::KnownAdversaryKinds()) {
    for (const std::uint64_t seed : {1ULL, 7ULL}) {
      for (const int T : {1, 2, 4}) {
        adversary::AdversaryConfig config;
        config.kind = kind;
        config.n = n;
        config.T = T;
        config.seed = seed;
        const auto scratch = adversary::MakeAdversary(config);
        const auto fast = adversary::MakeAdversary(config);
        DynGraph dyn(n);
        for (std::int64_t r = 1; r <= 30; ++r) {
          const Graph expected = scratch->TopologyFor(r, view);
          if (fast->RoundEdgesInto(r, view, dyn.EditBuffer())) {
            ++fast_rounds;
            const Graph& got = dyn.CommitEdges();
            ASSERT_EQ(got, expected)
                << kind << " seed=" << seed << " T=" << T << " round=" << r;
          } else {
            // Abandoned edit: View() must be untouched, streams stay aligned.
            ASSERT_EQ(fast->TopologyFor(r, view), expected)
                << kind << " seed=" << seed << " T=" << T << " round=" << r;
          }
        }
      }
    }
  }
  // The native implementations (spine/adaptive/static/replay families) must
  // actually exercise the fast path, not silently fall back everywhere.
  EXPECT_GT(fast_rounds, 0);
}

/// CommitEdges' CSR is the Graph constructor's for the same list, keeps the
/// degrees Apply maintains afterwards, and range-checks every edge.
TEST(DynGraph, CommitEdgesMatchesGraphCsr) {
  util::Rng rng(21);
  for (const auto& [n, p] :
       {std::pair<NodeId, double>{1, 0.0}, {5, 0.3}, {300, 0.0}, {300, 0.02},
        {300, 0.3}, {2048, 0.02}}) {
    SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
    const std::vector<Edge> edges = GnpEdges(n, p, rng);
    const Graph reference(n, edges);
    DynGraph dyn(Path(n));  // stale degrees/CSR from another graph
    dyn.EditBuffer() = edges;
    ASSERT_EQ(dyn.CommitEdges(), reference);
    // Degrees feed the next Apply: it must still match from scratch.
    if (n >= 2) {
      TopologyDelta delta;
      const Edge flip(0, n - 1);
      std::vector<Edge> next(edges);
      if (reference.HasEdge(0, n - 1)) {
        delta.removed.push_back(flip);
        next.erase(std::find(next.begin(), next.end(), flip));
      } else {
        delta.added.push_back(flip);
        next.push_back(flip);
      }
      ASSERT_EQ(dyn.Apply(delta), Graph(n, next));
    }
  }
  DynGraph dyn(100);
  dyn.EditBuffer() = {Edge(1, 2), Edge(3, 150)};
  EXPECT_THROW(dyn.CommitEdges(), util::CheckError);
}

/// Lanes of the shared pool: the serial runner, two lanes and every core.
std::vector<util::ShardRunner> Runners() {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  return {util::ShardRunner(),
          util::ShardRunner(&util::ThreadPool::Shared(), 2),
          util::ShardRunner(&util::ThreadPool::Shared(), hw)};
}

/// spine-gnp rounds and the CSR committed from them are identical at any
/// lane count, and a round asked out of order (a fresh instance going
/// backwards) reproduces the in-order one.
TEST(AdversaryFastPath, SpineGnpRoundsAndCsrAreLaneAndOrderInvariant) {
  const NodeId n = 1024;
  const ZeroView view(n);
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = n;
  config.T = 3;
  config.seed = 31;
  const int rounds = 10;
  std::vector<Graph> reference;
  for (const util::ShardRunner& run : Runners()) {
    SCOPED_TRACE("lanes=" + std::to_string(run.lanes()));
    const auto adv = adversary::MakeAdversary(config);
    adv->SetShardRunner(run);
    DynGraph dyn(n);
    for (std::int64_t r = 1; r <= rounds; ++r) {
      ASSERT_TRUE(adv->RoundEdgesInto(r, view, dyn.EditBuffer()));
      const Graph& g = dyn.CommitEdges();
      if (run.lanes() == 1) {
        reference.push_back(g);
      } else {
        ASSERT_EQ(g, reference[static_cast<std::size_t>(r - 1)])
            << "round " << r;
      }
    }
  }
  const auto backwards = adversary::MakeAdversary(config);
  backwards->SetShardRunner(Runners()[2]);
  for (std::int64_t r = rounds; r >= 1; --r) {
    ASSERT_EQ(backwards->TopologyFor(r, view),
              reference[static_cast<std::size_t>(r - 1)])
        << "round " << r;
  }
}

/// Streaming checker (both Push and PushDelta) vs the batch validator, on
/// honest adversary sequences and on corrupted ones.
TEST(TIntervalChecker, AgreesWithBatchValidator) {
  const NodeId n = 20;
  const ZeroView view(n);
  util::Rng corrupt_rng(99);
  for (const std::string& kind :
       {std::string("spine-gnp"), std::string("spine-rtree"),
        std::string("static-path"), std::string("mobile")}) {
    for (const int T : {1, 2, 3}) {
      adversary::AdversaryConfig config;
      config.kind = kind;
      config.n = n;
      config.T = T;
      config.seed = 5;
      const auto adv = adversary::MakeAdversary(config);
      std::vector<Graph> seq;
      for (std::int64_t r = 1; r <= 24; ++r) {
        seq.push_back(adv->TopologyFor(r, view));
      }
      for (const bool corrupt : {false, true}) {
        if (corrupt) {
          // Break one mid-sequence round (drop all edges of a random node).
          const auto at = 8 + corrupt_rng.UniformU64(8);
          std::vector<Edge> pruned;
          for (const Edge& e : seq[at].Edges()) {
            if (e.u != 0 && e.v != 0) pruned.push_back(e);
          }
          seq[at] = Graph(n, pruned);
        }
        // Only ok/first_bad_window are compared: early exit suffices.
        const TIntervalReport batch =
            ValidateTInterval(seq, T, ValidateMode::kEarlyExit);
        TIntervalChecker push_checker(n, T);
        TIntervalChecker delta_checker(n, T);
        Graph prev(n);
        TopologyDelta delta;
        for (const Graph& g : seq) {
          const bool a = push_checker.Push(g);
          DiffSorted(prev.Edges(), g.Edges(), delta);
          const bool b = delta_checker.PushDelta(delta);
          ASSERT_EQ(a, b);
          prev = g;
        }
        ASSERT_EQ(push_checker.ok(), batch.ok)
            << kind << " T=" << T << " corrupt=" << corrupt;
        ASSERT_EQ(push_checker.first_bad_window(), batch.first_bad_window)
            << kind << " T=" << T << " corrupt=" << corrupt;
        ASSERT_EQ(delta_checker.first_bad_window(), batch.first_bad_window);
      }
    }
  }
}

TEST(TIntervalChecker, FlagsFirstBadWindowOfAbruptCut) {
  // Path for 5 rounds, then edgeless: with T=2 the first bad window is the
  // one spanning rounds {5, 6}, i.e. 0-based start 4.
  TIntervalChecker checker(6, 2);
  for (int r = 0; r < 5; ++r) EXPECT_TRUE(checker.Push(Path(6)));
  EXPECT_FALSE(checker.Push(Graph(6)));
  EXPECT_FALSE(checker.ok());
  EXPECT_EQ(checker.first_bad_window(), 4);
}

/// The adversary view the engine presents, reconstructed from outside:
/// before Step() executes round r, round() is r and PublicState reads the
/// nodes' state as the engine's adversary call sees it.
template <typename Program>
class EngineView final : public net::AdversaryView {
 public:
  explicit EngineView(const net::Engine<Program>& engine) : engine_(engine) {}
  [[nodiscard]] std::int64_t round() const override {
    return engine_.current_round() + 1;
  }
  [[nodiscard]] double PublicState(NodeId u) const override {
    return engine_.node(u).PublicState();
  }
  [[nodiscard]] NodeId num_nodes() const override {
    return engine_.num_nodes();
  }

 private:
  const net::Engine<Program>& engine_;
};

/// Topology oracle: every Step()'s last_topology() equals what a second
/// instance of the same adversary builds from scratch with TopologyFor, for
/// every factory kind. Validation on drives the DeltaFor/Apply sub-path
/// (the checker consumes deltas) unless the kind publishes compositions;
/// validation off takes the RoundEdgesInto direct path. threads=2 at
/// n >= 128 runs the sharded phases (and sharded generators) on the pool.
TEST(EngineTopology, EveryStepMatchesFromScratchOracle) {
  for (const std::string& kind : adversary::KnownAdversaryKinds()) {
    for (const bool validate : {true, false}) {
      for (const auto& [n, threads] : {std::pair<NodeId, int>{48, 1},
                                       std::pair<NodeId, int>{160, 2}}) {
        SCOPED_TRACE(kind + " validate=" + std::to_string(validate) +
                     " n=" + std::to_string(n) +
                     " threads=" + std::to_string(threads));
        adversary::AdversaryConfig config;
        config.kind = kind;
        config.n = n;
        config.T = 2;
        config.seed = 11;
        const auto adv = adversary::MakeAdversary(config);
        const auto oracle = adversary::MakeAdversary(config);
        std::vector<algo::FloodMaxKnownN> nodes;
        for (NodeId u = 0; u < n; ++u) nodes.emplace_back(u, n, (u * 37) % n);
        net::EngineOptions opts;
        opts.validate_tinterval = validate;
        opts.threads = threads;
        net::Engine<algo::FloodMaxKnownN> engine(std::move(nodes), *adv, opts);
        const EngineView<algo::FloodMaxKnownN> view(engine);
        while (true) {
          // Queried before the round runs: adaptive kinds read the node
          // state the engine's own adversary call is about to see.
          const Graph expected = oracle->TopologyFor(view.round(), view);
          if (!engine.Step()) break;
          ASSERT_EQ(engine.last_topology(), expected)
              << "round " << engine.current_round();
        }
        const net::RunStats stats = engine.stats();
        EXPECT_TRUE(stats.all_decided);
        // Every round took exactly one topology sub-path.
        EXPECT_EQ(engine.topology_direct_rounds() +
                      engine.topology_delta_rounds(),
                  stats.rounds);
        if (validate) {
          EXPECT_TRUE(stats.tinterval_ok);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sdn::graph
