#include "graph/tinterval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adversary/factory.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "net/adversary.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::graph {
namespace {

std::vector<Graph> Repeat(const Graph& g, int times) {
  return std::vector<Graph>(static_cast<std::size_t>(times), g);
}

TEST(ValidateTInterval, StaticConnectedPassesAnyT) {
  const auto seq = Repeat(Path(6), 10);
  for (const int T : {1, 2, 3, 10}) {
    const auto report = ValidateTInterval(seq, T);
    EXPECT_TRUE(report.ok) << "T=" << T;
    EXPECT_EQ(report.min_stable_forest, 5);
  }
}

TEST(ValidateTInterval, DisconnectedRoundFailsT1) {
  std::vector<Graph> seq = Repeat(Path(4), 3);
  seq[1] = Graph(4, std::vector<Edge>{{0, 1}});  // disconnected round
  const auto report = ValidateTInterval(seq, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.first_bad_window, 1);
}

TEST(ValidateTInterval, SlidingWindowViolationDetected) {
  // Two alternating spanning trees that share no edges: each round is
  // connected (T=1 fine) but no 2-window has a common connected subgraph.
  const Graph a = Path(4);                                      // 0-1-2-3
  const Graph b(4, std::vector<Edge>{{0, 2}, {2, 1}, {1, 3}});  // disjoint path
  const std::vector<Graph> seq = {a, b, a, b};
  EXPECT_TRUE(ValidateTInterval(seq, 1).ok);
  const auto report = ValidateTInterval(seq, 2);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.first_bad_window, 0);
}

TEST(ValidateTInterval, AlignedRewireWithoutOverlapViolatesSlidingPromise) {
  // The naive "new spine every T rounds" adversary: windows straddling the
  // boundary fail. This pins down why adversaries need the overlap trick.
  util::Rng rng(1);
  const Graph s1 = RandomTree(16, rng);
  Graph s2 = RandomTree(16, rng);
  while (EdgeIntersection(std::vector<Graph>{s1, s2}).num_edges() >= 15) {
    s2 = RandomTree(16, rng);  // ensure the spines actually differ
  }
  const std::vector<Graph> seq = {s1, s1, s1, s2, s2, s2};
  const auto report = ValidateTInterval(seq, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_GE(report.first_bad_window, 1);
}

TEST(ValidateTInterval, OverlapRepairsStraddlingWindows) {
  util::Rng rng(2);
  const Graph s1 = RandomTree(16, rng);
  const Graph s2 = RandomTree(16, rng);
  const Graph both = s1.WithEdges(s2.Edges());
  // Era length 3, T=3: first T-1=2 rounds of era 2 carry both spines.
  const std::vector<Graph> seq = {s1, s1, s1, both, both, s2};
  EXPECT_TRUE(ValidateTInterval(seq, 3).ok);
}

TEST(ValidateTInterval, ShortSequenceUsesAvailableWindows) {
  const auto report = ValidateTInterval(Repeat(Path(4), 2), 5);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.windows_checked, 1);
}

TEST(ValidateTInterval, MinStableForestMeasuresIntersectionRichness) {
  // Static path: every window's intersection is the full spanning tree.
  const auto path_seq = Repeat(Path(5), 6);
  EXPECT_EQ(ValidateTInterval(path_seq, 3).min_stable_forest, 4);
  // Drop to a single shared edge in one window: forest size 1.
  std::vector<Graph> seq = Repeat(Path(4), 4);
  seq[2] = Graph(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}});  // star
  const auto report = ValidateTInterval(seq, 2);
  EXPECT_FALSE(report.ok);  // path ∩ star = {(0,1)} is not spanning
  EXPECT_EQ(report.min_stable_forest, 1);
}

TEST(ValidateTInterval, ShortSequenceIsExactlyTheClampedWindows) {
  // Doc pin: a sequence shorter than T has no complete window and there is
  // no separate partial-tail notion — the promise clamps to the
  // len - min(T, len) + 1 = 1 whole-prefix window, whose intersection must
  // itself be connected.
  const Graph a = Path(4);
  const Graph star(4, std::vector<Edge>{{0, 1}, {0, 2}, {0, 3}});
  const auto bad = ValidateTInterval(std::vector<Graph>{a, star}, 5);
  EXPECT_FALSE(bad.ok);  // path ∩ star = {(0,1)} disconnects the prefix
  EXPECT_EQ(bad.windows_checked, 1);
  EXPECT_EQ(bad.first_bad_window, 0);
  EXPECT_EQ(bad.min_stable_forest, 1);
  const auto good = ValidateTInterval(std::vector<Graph>{a, a, a}, 7);
  EXPECT_TRUE(good.ok);
  EXPECT_EQ(good.windows_checked, 1);
  EXPECT_EQ(good.min_stable_forest, 3);
}

TEST(ValidateTInterval, EarlyExitAgreesOnVerdictAndStopsThere) {
  const Graph a = Path(4);
  const Graph b(4, std::vector<Edge>{{0, 2}, {2, 1}, {1, 3}});
  const std::vector<Graph> seq = {a, a, b, b, a, b, a};
  const auto full = ValidateTInterval(seq, 2, ValidateMode::kFull);
  const auto fast = ValidateTInterval(seq, 2, ValidateMode::kEarlyExit);
  ASSERT_FALSE(full.ok);
  EXPECT_FALSE(fast.ok);
  EXPECT_EQ(fast.first_bad_window, full.first_bad_window);
  EXPECT_LT(fast.windows_checked, full.windows_checked);
  // On a clean sequence both modes see every window.
  const std::vector<Graph> clean = {a, a, a, a};
  const auto clean_full = ValidateTInterval(clean, 2, ValidateMode::kFull);
  const auto clean_fast = ValidateTInterval(clean, 2, ValidateMode::kEarlyExit);
  EXPECT_TRUE(clean_fast.ok);
  EXPECT_EQ(clean_fast.windows_checked, clean_full.windows_checked);
  EXPECT_EQ(clean_fast.min_stable_forest, clean_full.min_stable_forest);
}

TEST(IncrementalForest, TracksConnectivityUnderChurn) {
  const auto key = [](NodeId u, NodeId v) {
    return (static_cast<std::uint64_t>(std::min(u, v)) << 32) |
           static_cast<std::uint64_t>(std::max(u, v));
  };
  IncrementalForest f(4);
  f.BeginRebuild();
  f.Insert(0, 1, key(0, 1));
  f.Insert(1, 2, key(1, 2));
  EXPECT_FALSE(f.dirty());
  EXPECT_FALSE(f.connected());
  EXPECT_EQ(f.forest_size(), 2);
  f.Insert(2, 3, key(2, 3));
  EXPECT_TRUE(f.connected());
  EXPECT_EQ(f.forest_size(), 3);
  // A cycle edge is non-tree: inserting and erasing it never dirties.
  f.Insert(0, 3, key(0, 3));
  EXPECT_EQ(f.tree_edges(), 3);
  f.Erase(key(0, 3));
  EXPECT_FALSE(f.dirty());
  EXPECT_TRUE(f.connected());
  // Erasing a tree edge forces the lazy rebuild before queries resolve.
  f.Erase(key(1, 2));
  EXPECT_TRUE(f.dirty());
  f.BeginRebuild();
  f.Insert(0, 1, key(0, 1));
  f.Insert(2, 3, key(2, 3));
  EXPECT_FALSE(f.connected());
  EXPECT_EQ(f.forest_size(), 2);
  // Reset re-targets the node count and drops everything.
  f.Reset(3);
  f.BeginRebuild();
  f.Insert(0, 2, key(0, 2));
  f.Insert(1, 2, key(1, 2));
  EXPECT_TRUE(f.connected());
  EXPECT_EQ(f.forest_size(), 2);
}

TEST(TIntervalChecker, StreamingMatchesBatch) {
  const Graph a = Path(4);
  const Graph b(4, std::vector<Edge>{{0, 2}, {2, 1}, {1, 3}});
  const std::vector<Graph> seq = {a, a, b, b, a};
  const auto batch = ValidateTInterval(seq, 2);

  TIntervalChecker checker(4, 2);
  bool ok = true;
  std::int64_t first_bad = -1;
  std::int64_t round = 0;
  for (const Graph& g : seq) {
    const bool now = checker.Push(g);
    if (ok && !now) first_bad = round - 1;
    ok = now;
    ++round;
  }
  EXPECT_EQ(checker.ok(), batch.ok);
  EXPECT_EQ(checker.first_bad_window(), batch.first_bad_window);
  EXPECT_EQ(first_bad, batch.first_bad_window);
}

TEST(TIntervalChecker, PassesStaticSequence) {
  TIntervalChecker checker(5, 3);
  const Graph g = Cycle(5);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(checker.Push(g));
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.rounds_seen(), 20);
}

TEST(TIntervalChecker, FeedModesMustNotMix) {
  TIntervalChecker checker(4, 2);
  EXPECT_TRUE(checker.Push(Path(4)));
  const RoundComposition comp;  // never reached: the mode check fires first
  EXPECT_THROW((void)checker.PushComposition(comp, Path(4)),
               util::CheckError);
}

/// Largest T' <= T the batch validator accepts — the quantity the streaming
/// checker's certified_T() claims to equal (window connectivity is downward
/// closed in window length, so the accepted T' form a prefix).
std::int64_t BatchCertifiedT(std::span<const Graph> seq, int T) {
  std::int64_t cert = 0;
  for (int t = 1; t <= T; ++t) {
    if (!ValidateTInterval(seq, t).ok) break;
    cert = t;
  }
  return cert;
}

/// A sorted duplicate-free batch of `k` random edges on n nodes.
std::vector<Edge> RandomEdges(NodeId n, int k, util::Rng& rng) {
  std::vector<Edge> edges;
  for (int i = 0; i < k; ++i) {
    const auto u = static_cast<NodeId>(rng.UniformU64(
        static_cast<std::uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.UniformU64(
        static_cast<std::uint64_t>(n)));
    if (u != v) edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(TIntervalChecker, FuzzStreamingFeedsMatchBatch) {
  // Randomized equivalence: Push and PushDelta against the batch validator
  // on churny sequences — persistent tree (redrawn with some probability,
  // planting violations) plus per-round volatile extras. Every reported
  // field must agree, including certified-T and the forest minimum.
  util::Rng rng(424242);
  const NodeId n = 10;
  for (int iter = 0; iter < 60; ++iter) {
    const int T = std::array<int, 3>{1, 2, 5}[static_cast<std::size_t>(iter % 3)];
    const int len = 1 + static_cast<int>(rng.UniformU64(12));
    Graph tree = RandomTree(n, rng);
    std::vector<Graph> seq;
    std::vector<Edge> round_edges;
    for (int r = 0; r < len; ++r) {
      if (rng.Bernoulli(0.3)) tree = RandomTree(n, rng);
      UnionSorted(tree.Edges(), RandomEdges(n, 5, rng), round_edges);
      seq.emplace_back(n, std::span<const Edge>(round_edges));
    }
    const auto batch = ValidateTInterval(seq, T);
    TIntervalChecker push_checker(n, T);
    TIntervalChecker delta_checker(n, T);
    Graph prev(n);
    for (const Graph& g : seq) {
      const bool a = push_checker.Push(g);
      const bool b = delta_checker.PushDelta(Diff(prev, g));
      EXPECT_EQ(a, b);
      prev = g;
    }
    for (const TIntervalChecker* c : {&push_checker, &delta_checker}) {
      EXPECT_EQ(c->ok(), batch.ok) << "iter " << iter << " T=" << T;
      EXPECT_EQ(c->first_bad_window(), batch.first_bad_window)
          << "iter " << iter << " T=" << T;
      EXPECT_EQ(c->min_stable_forest(), batch.min_stable_forest)
          << "iter " << iter << " T=" << T;
      EXPECT_EQ(c->certified_T(), BatchCertifiedT(seq, T))
          << "iter " << iter << " T=" << T;
    }
  }
}

TEST(TIntervalChecker, FuzzCompositionMatchesBatch) {
  // Same equivalence for the certification fast path, over synthetic
  // era-structured streams shaped like the stable-spine adversary: pinned
  // per-era spines (stable id -> stable span), an overlap round carrying
  // both spines, per-round fresh extras. Odd iterations drop the overlap,
  // so era-straddling windows lose their witness and force the exact
  // reconstruction fallback — usually a genuine violation.
  util::Rng rng(2026);
  const NodeId n = 12;
  for (int iter = 0; iter < 36; ++iter) {
    const int T = std::array<int, 3>{1, 2, 5}[static_cast<std::size_t>(iter % 3)];
    const int era_len = std::max(T, 2);
    const bool honest = iter % 2 == 0;
    const int len =
        1 + static_cast<int>(rng.UniformU64(
                static_cast<std::uint64_t>(4 * era_len)));
    // Pinned spans with shared owners, as the composition contract requires.
    std::map<std::uint64_t, std::shared_ptr<const std::vector<Edge>>> spines;
    const auto spine_for = [&](std::uint64_t era)
        -> const std::shared_ptr<const std::vector<Edge>>& {
      auto it = spines.find(era);
      if (it == spines.end()) {
        const Graph t = RandomTree(n, rng);
        it = spines
                 .emplace(era, std::make_shared<const std::vector<Edge>>(
                                   t.Edges().begin(), t.Edges().end()))
                 .first;
      }
      return it->second;
    };
    std::vector<Graph> seq;
    std::vector<RoundComposition> comps;
    std::vector<std::vector<Edge>> fresh_store(
        static_cast<std::size_t>(len));
    std::vector<Edge> scratch;
    for (int r = 1; r <= len; ++r) {
      const auto era = static_cast<std::uint64_t>((r - 1) / era_len);
      const bool overlap = honest && era > 0 && (r - 1) % era_len < T - 1;
      const std::shared_ptr<const std::vector<Edge>>& core = spine_for(era);
      fresh_store[static_cast<std::size_t>(r - 1)] =
          RandomEdges(n, static_cast<int>(rng.UniformU64(4)), rng);
      const std::vector<Edge>& fresh =
          fresh_store[static_cast<std::size_t>(r - 1)];
      RoundComposition comp;
      comp.core = *core;
      comp.core_id = era;
      comp.core_owner = core;
      comp.fresh = fresh;
      std::vector<Edge> all;
      if (overlap) {
        const auto& prev_spine = spine_for(era - 1);
        comp.support = *prev_spine;
        comp.support_id = era - 1;
        comp.support_owner = prev_spine;
        UnionSorted(*core, *prev_spine, scratch);
        UnionSorted(scratch, fresh, all);
      } else {
        UnionSorted(*core, fresh, all);
      }
      seq.emplace_back(n, std::span<const Edge>(all));
      comps.push_back(comp);
    }
    TIntervalChecker comp_checker(n, T);
    TIntervalChecker push_checker(n, T);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const bool a = comp_checker.PushComposition(comps[i], seq[i]);
      const bool b = push_checker.Push(seq[i]);
      EXPECT_EQ(a, b) << "iter " << iter << " round " << i + 1;
    }
    const auto batch = ValidateTInterval(seq, T);
    EXPECT_EQ(comp_checker.ok(), batch.ok) << "iter " << iter;
    EXPECT_EQ(comp_checker.first_bad_window(), batch.first_bad_window)
        << "iter " << iter;
    EXPECT_EQ(comp_checker.min_stable_forest(), batch.min_stable_forest)
        << "iter " << iter;
    EXPECT_EQ(comp_checker.certified_T(), BatchCertifiedT(seq, T))
        << "iter " << iter;
    EXPECT_EQ(comp_checker.stable_edge_count(), -1);
  }
}

TEST(TIntervalChecker, CompositionLiesAreCaught) {
  // A claim whose union disagrees with the round must throw (first-seen ids
  // are fully verified), never silently certify.
  const auto claimed = std::make_shared<const std::vector<Edge>>(
      std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const Graph actual(6, std::vector<Edge>{{1, 2}, {2, 3}, {3, 4}, {4, 5}});
  RoundComposition comp;
  comp.core = *claimed;  // (0,1) is not in the round
  comp.core_id = 0;
  comp.core_owner = claimed;
  TIntervalChecker checker(6, 2);
  EXPECT_THROW((void)checker.PushComposition(comp, actual),
               util::CheckError);
}

TEST(TIntervalChecker, CompositionWithoutOwnerIsRejected) {
  // The span-lifetime contract: a non-empty core/support span must carry a
  // shared owner, or the checker refuses the claim outright. A bare span
  // could dangle the moment the adversary rotates its era buffers.
  const std::vector<Edge> bare = {{0, 1}, {1, 2}, {2, 3}};
  const Graph actual(4, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}});
  RoundComposition comp;
  comp.core = bare;
  comp.core_id = 0;  // no core_owner set
  TIntervalChecker checker(4, 2);
  EXPECT_THROW((void)checker.PushComposition(comp, actual),
               util::CheckError);
}

TEST(TIntervalChecker, SpineCachePinsPublishedBuffer) {
  // Span identity across era revisits: the checker's spine cache must hold
  // the *published* buffer via its shared owner, not a copy. After the
  // producer drops its reference, the owner's data pointer (captured at
  // publish time) must still be what the record pins — use_count proves the
  // cache took shared ownership instead of copying.
  auto spine = std::make_shared<const std::vector<Edge>>(
      std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const Edge* const published_data = spine->data();
  const Graph round(5, std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  RoundComposition comp;
  comp.core = *spine;
  comp.core_id = 7;
  comp.core_owner = spine;
  TIntervalChecker checker(5, 2);
  EXPECT_TRUE(checker.PushComposition(comp, round));
  // The checker now co-owns the buffer (producer + cache).
  EXPECT_GE(spine.use_count(), 2);
  // Producer rotates away; the cached record must keep the bytes alive at
  // the same address — feed the same id again from a fresh span over the
  // original owner and the checker must accept without re-verification.
  std::weak_ptr<const std::vector<Edge>> weak = spine;
  spine.reset();
  EXPECT_FALSE(weak.expired()) << "checker must pin the published buffer";
  const auto pinned = weak.lock();
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->data(), published_data);
  RoundComposition again;
  again.core = *pinned;
  again.core_id = 7;
  again.core_owner = pinned;
  EXPECT_TRUE(checker.PushComposition(again, round));
}

TEST(TIntervalChecker, SpineCacheRetainsOnlyRingSpines) {
  // The witness path keeps a spine's shared owner only while the last-T
  // ring still references its id. Twelve spine-gnp eras are pushed; each
  // claimed spine is copied into a buffer this test owns (so the
  // adversary's own era cache keeps nothing alive), and the test holds it
  // only for the round that claims it. After every push, a spine is alive
  // exactly when its id appears in one of the last T rounds' claims.
  constexpr NodeId n = 64;
  constexpr int T = 2;
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = n;
  config.T = T;
  config.seed = 3;
  const auto adv = adversary::MakeAdversary(config);
  ASSERT_TRUE(adv->has_composition());
  class ZeroView final : public net::AdversaryView {
   public:
    [[nodiscard]] std::int64_t round() const override { return 1; }
    [[nodiscard]] double PublicState(NodeId) const override { return 0; }
    [[nodiscard]] NodeId num_nodes() const override { return n; }
  } view;

  using Owner = std::shared_ptr<const std::vector<Edge>>;
  std::map<std::uint64_t, std::weak_ptr<const std::vector<Edge>>> seen;
  const auto own = [&seen](std::uint64_t id, std::span<const Edge> edges) {
    if (const auto it = seen.find(id); it != seen.end()) {
      if (Owner held = it->second.lock()) return held;
    }
    auto copy = std::make_shared<const std::vector<Edge>>(edges.begin(),
                                                          edges.end());
    seen[id] = copy;
    return Owner(copy);
  };
  TIntervalChecker checker(n, T);
  DynGraph dyn(n);
  TopologyDelta delta;
  std::vector<std::array<std::uint64_t, 2>> claimed;  // ids per round
  constexpr std::int64_t kRounds = 12 * T;
  for (std::int64_t r = 1; r <= kRounds; ++r) {
    adv->DeltaFor(r, view, dyn.View(), delta);
    dyn.Apply(delta);
    {
      const RoundComposition* c = adv->Composition(r);
      ASSERT_NE(c, nullptr);
      RoundComposition comp = *c;
      comp.core_owner = own(c->core_id, c->core);
      comp.core = *comp.core_owner;
      if (!c->support.empty()) {
        comp.support_owner = own(c->support_id, c->support);
        comp.support = *comp.support_owner;
      }
      claimed.push_back({comp.core_id, c->support.empty()
                                           ? RoundComposition::kNoId
                                           : comp.support_id});
      EXPECT_TRUE(checker.PushComposition(comp, dyn.View()));
    }  // the test's references to this round's spines end here
    for (const auto& [id, weak] : seen) {
      bool in_ring = false;
      for (std::int64_t s = std::max<std::int64_t>(1, r - T + 1); s <= r;
           ++s) {
        const auto& ids = claimed[static_cast<std::size_t>(s - 1)];
        in_ring = in_ring || ids[0] == id || ids[1] == id;
      }
      EXPECT_EQ(!weak.expired(), in_ring) << "spine " << id << " round " << r;
    }
  }
  EXPECT_GE(seen.size(), 6u);  // at least six eras went through
}

/// Named randomized test (the MathGeoLib AddRandomizedTest idiom): the seed
/// and repeat count are printed before the run and attached to every
/// failure, and repeat `rep` draws from Rng(seed + rep) alone, so one
/// failing repeat replays in isolation. SDN_FUZZ_SEED overrides the seed.
void RunRandomized(const char* name, std::uint64_t seed, int repeats,
                   const std::function<void(util::Rng&)>& body) {
  if (const char* env = std::getenv("SDN_FUZZ_SEED");
      env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 0);
  }
  std::printf("[ RANDOM   ] %s seed=%llu repeats=%d\n", name,
              static_cast<unsigned long long>(seed), repeats);
  for (int rep = 0; rep < repeats; ++rep) {
    SCOPED_TRACE(::testing::Message()
                 << name << " seed=" << seed << " repeat=" << rep);
    util::Rng rng(seed + static_cast<std::uint64_t>(rep));
    body(rng);
  }
}

/// Edges of the intersection of rounds [from, to] (0-based, inclusive).
std::int64_t IntersectionSize(std::span<const Graph> seq, std::size_t from,
                              std::size_t to) {
  return EdgeIntersection(seq.subspan(from, to - from + 1)).num_edges();
}

/// A random spanning tree over the listed nodes.
std::vector<Edge> TreeOver(std::span<const NodeId> nodes, util::Rng& rng) {
  std::vector<Edge> edges;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    const NodeId parent = nodes[rng.UniformU64(i)];
    edges.emplace_back(parent, nodes[i]);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Streams at the T-interval promise boundary on n nodes. Two shapes:
///  * bridge: two halves, each spanned by a persistent tree, joined by one
///    bridge edge that leaves for exactly one round now and then (a second
///    bridge sometimes covers the gap), so windows fail exactly when they
///    straddle an uncovered gap;
///  * spine swap: a fresh spanning tree every `era` rounds with `overlap`
///    rounds of both trees at each swap, era and overlap drawn around T so
///    the swaps land exactly on window edges.
/// Both add a few volatile extras per round.
std::vector<Graph> BoundaryStream(NodeId n, int T, int len, util::Rng& rng) {
  std::vector<Graph> seq;
  std::vector<Edge> round_edges;
  std::vector<Edge> scratch;
  if (rng.Bernoulli(0.5)) {
    std::vector<NodeId> left;
    std::vector<NodeId> right;
    for (NodeId u = 0; u < n; ++u) (u < n / 2 ? left : right).push_back(u);
    std::vector<Edge> halves;
    UnionSorted(TreeOver(left, rng), TreeOver(right, rng), halves);
    const Edge bridge(left[rng.UniformU64(left.size())],
                      right[rng.UniformU64(right.size())]);
    const Edge spare(left[rng.UniformU64(left.size())],
                     right[rng.UniformU64(right.size())]);
    bool spare_on = false;
    for (int r = 0; r < len; ++r) {
      if (rng.Bernoulli(0.3)) spare_on = !spare_on;
      std::vector<Edge> links;
      if (!rng.Bernoulli(0.25)) links.push_back(bridge);
      if (spare_on && !(spare == bridge)) links.push_back(spare);
      std::sort(links.begin(), links.end());
      UnionSorted(halves, links, scratch);
      UnionSorted(scratch,
                  RandomEdges(n, static_cast<int>(rng.UniformU64(3)), rng),
                  round_edges);
      seq.emplace_back(n, std::span<const Edge>(round_edges));
    }
    return seq;
  }
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), NodeId{0});
  const int era = std::max(1, T - 1 + static_cast<int>(rng.UniformU64(3)));
  const int overlap = static_cast<int>(
      rng.UniformU64(static_cast<std::uint64_t>(std::min(T, era + 1))));
  std::vector<Edge> spine = TreeOver(all, rng);
  std::vector<Edge> previous;
  int in_era = 0;
  for (int r = 0; r < len; ++r) {
    if (in_era == era) {
      previous = spine;
      spine = TreeOver(all, rng);
      in_era = 0;
    }
    const bool both = r >= era && in_era < overlap;
    UnionSorted(spine, both ? previous : std::vector<Edge>{}, scratch);
    UnionSorted(scratch,
                RandomEdges(n, static_cast<int>(rng.UniformU64(3)), rng),
                round_edges);
    seq.emplace_back(n, std::span<const Edge>(round_edges));
    ++in_era;
  }
  return seq;
}

TEST(TIntervalChecker, RandomizedPromiseBoundaryMatchesBatch) {
  // Differential fuzz of the streaming checker (both the Push and PushDelta
  // feeds) against batch ValidateTInterval, T in 1..8, on streams sitting
  // at the promise boundary. After every round the verdict, certified T,
  // forest minimum and stable-set size are compared against the batch
  // answer for the prefix seen so far.
  RunRandomized("PromiseBoundary", 0x5eed1357, 160, [](util::Rng& rng) {
    const NodeId n = 4 + static_cast<NodeId>(rng.UniformU64(9));
    const int T = 1 + static_cast<int>(rng.UniformU64(8));
    const int len = 1 + static_cast<int>(rng.UniformU64(
                            static_cast<std::uint64_t>(3 * T + 6)));
    const std::vector<Graph> seq = BoundaryStream(n, T, len, rng);
    TIntervalChecker push_checker(n, T);
    TIntervalChecker delta_checker(n, T);
    Graph prev(n);
    for (std::size_t r = 0; r < seq.size(); ++r) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " T=" << T
                                        << " round=" << r + 1);
      (void)push_checker.Push(seq[r]);
      (void)delta_checker.PushDelta(Diff(prev, seq[r]));
      prev = seq[r];
      const std::span<const Graph> prefix(seq.data(), r + 1);
      const auto batch = ValidateTInterval(prefix, T);
      const std::int64_t stable =
          static_cast<int>(r) + 1 >= T
              ? IntersectionSize(prefix, r + 1 - static_cast<std::size_t>(T),
                                 r)
              : 0;
      for (const TIntervalChecker* c : {&push_checker, &delta_checker}) {
        // ok()/first_bad_window() judge complete windows only; a prefix
        // shorter than T shows up in certified_T and the forest instead.
        if (static_cast<int>(r) + 1 >= T) {
          EXPECT_EQ(c->ok(), batch.ok);
          EXPECT_EQ(c->first_bad_window(), batch.first_bad_window);
        }
        EXPECT_EQ(c->certified_T(), BatchCertifiedT(prefix, T));
        EXPECT_EQ(c->min_stable_forest(), batch.min_stable_forest);
        EXPECT_EQ(c->stable_edge_count(), stable);
      }
    }
  });
}

/// Runs `bad` as round 3 after two well-formed rounds on a 6-node path and
/// returns the CheckError message ("" if nothing was thrown).
std::string DeltaErrorAtRound3(const TopologyDelta& bad) {
  TIntervalChecker checker(6, 2);
  TopologyDelta first;
  first.added = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};
  EXPECT_TRUE(checker.PushDelta(first));
  EXPECT_TRUE(checker.PushDelta(TopologyDelta{}));
  try {
    (void)checker.PushDelta(bad);
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(TIntervalChecker, DeltaContractViolationsNameEdgeAndRound) {
  TopologyDelta removes_absent;
  removes_absent.removed = {{0, 1}, {0, 5}};
  EXPECT_NE(DeltaErrorAtRound3(removes_absent)
                .find("delta removes absent edge (0,5) at round 3"),
            std::string::npos);
  TopologyDelta adds_present;
  adds_present.added = {{0, 4}, {2, 3}};
  EXPECT_NE(DeltaErrorAtRound3(adds_present)
                .find("delta adds present edge (2,3) at round 3"),
            std::string::npos);
}

TEST(IncrementalForest, RebuildOrderDoesNotChangeConnectivity) {
  // Rebuild inserts append their tree keys unsorted and EndRebuild sorts
  // them once. An ascending-key rebuild (the checker's walk order) and a
  // shuffled one must agree on connectivity and forest size, and every tree
  // key of either must stay findable: erasing it dirties the forest.
  RunRandomized("RebuildOrder", 0xf0e57, 40, [](util::Rng& rng) {
    const NodeId n = 2 + static_cast<NodeId>(rng.UniformU64(30));
    const std::vector<Edge> edges = RandomEdges(
        n, static_cast<int>(rng.UniformU64(2 * static_cast<std::uint64_t>(n))),
        rng);
    const auto key = [](const Edge& e) {
      return (static_cast<std::uint64_t>(e.u) << 32) |
             static_cast<std::uint64_t>(e.v);
    };
    std::vector<Edge> shuffled = edges;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    IncrementalForest ascending(n);
    IncrementalForest scrambled(n);
    const auto rebuild = [&](IncrementalForest& forest,
                             const std::vector<Edge>& order) {
      forest.BeginRebuild();
      for (const Edge& e : order) forest.Insert(e.u, e.v, key(e));
      forest.EndRebuild();
    };
    rebuild(ascending, edges);
    rebuild(scrambled, shuffled);
    ASSERT_FALSE(scrambled.dirty());
    EXPECT_EQ(scrambled.connected(), ascending.connected());
    EXPECT_EQ(scrambled.forest_size(), ascending.forest_size());
    EXPECT_EQ(scrambled.tree_edges(), scrambled.forest_size());
    for (const IncrementalForest* forest : {&ascending, &scrambled}) {
      std::int64_t tree_hits = 0;
      for (const Edge& e : edges) {
        IncrementalForest probe = *forest;
        probe.Erase(key(e));
        tree_hits += probe.dirty() ? 1 : 0;
      }
      EXPECT_EQ(tree_hits, forest->tree_edges());
    }
  });
}

}  // namespace
}  // namespace sdn::graph
