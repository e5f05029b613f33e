#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "adversary/spine.hpp"
#include "graph/algorithms.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::graph {
namespace {

TEST(Generators, PathShape) {
  const Graph g = Path(5);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_EQ(Diameter(g), 4);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_EQ(g.Degree(2), 2);
}

TEST(Generators, CycleShape) {
  const Graph g = Cycle(6);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(Diameter(g), 3);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(g.Degree(u), 2);
}

TEST(Generators, StarShape) {
  const Graph g = Star(7);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_EQ(g.Degree(0), 6);
  EXPECT_EQ(Diameter(g), 2);
}

TEST(Generators, CompleteShape) {
  const Graph g = Complete(5);
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_EQ(Diameter(g), 1);
}

TEST(Generators, GridShape) {
  const Graph g = GridGraph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12);
  EXPECT_EQ(g.num_edges(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_EQ(Diameter(g), 5);
}

TEST(Generators, BinaryTreeShape) {
  const Graph g = BinaryTree(7);
  EXPECT_EQ(g.num_edges(), 6);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(Diameter(g), 4);
}

TEST(Generators, HypercubeShape) {
  const Graph g = Hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16);
  EXPECT_EQ(g.num_edges(), 32);
  EXPECT_EQ(Diameter(g), 4);
}

TEST(Generators, BarbellShape) {
  const Graph g = Barbell(10);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(Diameter(g), 3);  // across the bridge
}

TEST(Generators, RandomTreeIsSpanningTree) {
  util::Rng rng(1);
  for (const NodeId n : {1, 2, 3, 10, 100}) {
    const Graph g = RandomTree(n, rng);
    EXPECT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.num_edges(), n - 1);
    EXPECT_TRUE(IsConnected(g));
  }
}

TEST(Generators, RandomTreeVaries) {
  util::Rng rng(2);
  const Graph a = RandomTree(50, rng);
  const Graph b = RandomTree(50, rng);
  EXPECT_NE(a, b);  // overwhelmingly likely
}

TEST(Generators, GnpEdgeCountNearExpectation) {
  util::Rng rng(3);
  const NodeId n = 200;
  const double p = 0.1;
  double total = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(Gnp(n, p, rng).num_edges());
  }
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total / trials, expected, expected * 0.1);
}

TEST(Generators, GnpExtremes) {
  util::Rng rng(4);
  EXPECT_EQ(Gnp(10, 0.0, rng).num_edges(), 0);
  EXPECT_EQ(Gnp(10, 1.0, rng).num_edges(), 45);
}

TEST(Generators, ConnectedGnpAlwaysConnected) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    EXPECT_TRUE(IsConnected(ConnectedGnp(64, 0.01, rng)));
    EXPECT_TRUE(IsConnected(ConnectedGnp(64, 0.0, rng)));
  }
}

TEST(Generators, PairBalancedRowsSplitPairsEvenly) {
  for (const NodeId n : {1, 2, 7, 128, 4096, 65536}) {
    const int shards = util::NodeShards(n);
    const std::vector<NodeId> rows = PairBalancedRows(n, shards);
    ASSERT_EQ(rows.size(), static_cast<std::size_t>(shards) + 1);
    EXPECT_EQ(rows.front(), 0);
    EXPECT_EQ(rows.back(), n);
    EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
    // Each shard's pair count is within one row width (n-1 pairs) of the
    // even share.
    const double share = static_cast<double>(RowStart(n, n)) / shards;
    for (int s = 0; s < shards; ++s) {
      const auto pairs = static_cast<double>(
          RowStart(n, rows[static_cast<std::size_t>(s) + 1]) -
          RowStart(n, rows[static_cast<std::size_t>(s)]));
      EXPECT_NEAR(pairs, share, static_cast<double>(n)) << "n=" << n
                                                         << " shard " << s;
    }
  }
  EXPECT_EQ(RowStart(5, 5), 10u);
  EXPECT_EQ(RowStart(5, 1), 4u);
}

// Sharded G(n,p) at the spine density 2 ln n / n: the raw edge count is
// within 5 sigma of p n(n-1)/2, the shard runs concatenate into a sorted
// duplicate-free list, and the repaired spine is connected.
TEST(Generators, ShardedGnpEdgeCountWithinFiveSigmaAndConnected) {
  for (const NodeId n : {128, 4096}) {
    const double p = 2.0 * std::log(static_cast<double>(n)) / n;
    const std::vector<NodeId> rows = PairBalancedRows(n, util::NodeShards(n));
    const double pairs = static_cast<double>(RowStart(n, n));
    const double sigma = std::sqrt(pairs * p * (1.0 - p));
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 0x5eedULL}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      std::vector<std::vector<Edge>> shard_edges;
      std::vector<Edge> edges;
      ShardedGnpEdges(n, p, seed, rows, util::ShardRunner(), shard_edges,
                      edges);
      EXPECT_NEAR(static_cast<double>(edges.size()), p * pairs, 5.0 * sigma);
      EXPECT_TRUE(std::adjacent_find(edges.begin(), edges.end(),
                                     [](const Edge& a, const Edge& b) {
                                       return !(a < b);
                                     }) == edges.end());
      util::Rng rng(seed);
      RepairConnectivity(n, edges, rng);
      EXPECT_TRUE(IsConnected(Graph(n, edges)));
    }
  }
}

// The edge list is a function of (n, p, seed, rows): the lanes that run
// the shards never show in it.
TEST(Generators, ShardedGnpIsLaneInvariant) {
  const NodeId n = 4096;
  const double p = 2.0 * std::log(static_cast<double>(n)) / n;
  const std::vector<NodeId> rows = PairBalancedRows(n, util::NodeShards(n));
  std::vector<std::vector<Edge>> shard_edges;
  std::vector<Edge> serial;
  ShardedGnpEdges(n, p, 77, rows, util::ShardRunner(), shard_edges, serial);
  const int hw = std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const int lanes : {2, hw}) {
    std::vector<Edge> parallel;
    ShardedGnpEdges(n, p, 77, rows,
                    util::ShardRunner(&util::ThreadPool::Shared(), lanes),
                    shard_edges, parallel);
    EXPECT_EQ(parallel, serial) << "lanes=" << lanes;
  }
  // The gnp spine built on lanes matches the serial MakeSpine.
  adversary::SpineSpec spec;
  spec.kind = adversary::SpineKind::kGnp;
  util::Rng a(9);
  util::Rng b(9);
  adversary::SpineScratch scratch(n);
  std::vector<Edge> spine;
  adversary::MakeSpineEdges(spec, n, a,
                            util::ShardRunner(&util::ThreadPool::Shared(), hw),
                            scratch, spine);
  const Graph reference = adversary::MakeSpine(spec, n, b);
  EXPECT_TRUE(std::equal(spine.begin(), spine.end(), reference.Edges().begin(),
                         reference.Edges().end()));
}

TEST(Generators, RandomPairsStayInTheirRowsSortedAndUnique) {
  util::Rng rng(12);
  std::vector<std::uint64_t> scratch;
  std::vector<Edge> out;
  AppendRandomPairs(50, 10, 20, 500, rng, scratch, out);
  ASSERT_FALSE(out.empty());
  EXPECT_LE(out.size(), 500u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i].u, 10);
    EXPECT_LT(out[i].u, 20);
    EXPECT_LT(out[i].v, 50);
    if (i > 0) {
      EXPECT_LT(out[i - 1], out[i]);
    }
  }
  // 500 draws over the 345 pairs of rows 10..19 hit most of them.
  EXPECT_GT(out.size(), 250u);
  AppendRandomPairs(50, 49, 50, 10, rng, scratch, out);  // row 49: no pairs
  EXPECT_LE(out.size(), 345u);
}

TEST(Generators, RandomExpanderConnectedWithLogDiameter) {
  util::Rng rng(6);
  const Graph g = RandomExpander(256, 2, rng);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_LE(Diameter(g), 20);  // ~log n for a union of 2 random cycles
}

TEST(Generators, PathOfCliquesDiameterScalesWithCliqueCount) {
  const Graph g = PathOfCliques(8, 4);
  EXPECT_EQ(g.num_nodes(), 32);
  EXPECT_TRUE(IsConnected(g));
  // Bridges chain cliques: diameter grows ~2 per clique.
  EXPECT_GE(Diameter(g), 8);
  EXPECT_LE(Diameter(g), 16);
}

TEST(Generators, GeometricGraphRadiusControlsEdges) {
  util::Rng rng(7);
  const auto pts = RandomPoints(50, rng);
  const Graph tight = GeometricGraph(pts, 0.05);
  const Graph loose = GeometricGraph(pts, 0.5);
  EXPECT_LT(tight.num_edges(), loose.num_edges());
  EXPECT_EQ(GeometricGraph(pts, 2.0).num_edges(), 50 * 49 / 2);
}

class TreeFamilyTest : public ::testing::TestWithParam<NodeId> {};

TEST_P(TreeFamilyTest, AllTreesHaveNMinus1EdgesAndConnect) {
  const NodeId n = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(n));
  for (const Graph& g :
       {Path(n), Star(n), BinaryTree(n), RandomTree(n, rng)}) {
    EXPECT_EQ(g.num_edges(), n - 1);
    EXPECT_TRUE(IsConnected(g));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeFamilyTest,
                         ::testing::Values(2, 3, 5, 17, 64, 257));

}  // namespace
}  // namespace sdn::graph
