// Topology generators.
//
// Deterministic families give known diameters for validator tests; random
// families are the raw material the adversaries rewire every round/window.
// All randomized generators take an explicit Rng so trials replay exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::graph {

Graph Path(NodeId n);
Graph Cycle(NodeId n);
/// Node 0 is the hub.
Graph Star(NodeId n);
Graph Complete(NodeId n);
/// rows*cols nodes in a 4-neighbor lattice.
Graph GridGraph(NodeId rows, NodeId cols);
/// Heap-indexed complete-ish binary tree on n nodes (node i's parent is
/// (i-1)/2); diameter ~2·log2(n).
Graph BinaryTree(NodeId n);
/// dim-dimensional hypercube on 2^dim nodes.
Graph Hypercube(int dim);
/// Two cliques of ⌈n/2⌉ and ⌊n/2⌋ nodes joined by one bridge edge.
Graph Barbell(NodeId n);

/// Uniform random labelled spanning tree (random Prüfer sequence).
Graph RandomTree(NodeId n, util::Rng& rng);

/// Erdős–Rényi G(n,p); may be disconnected.
Graph Gnp(NodeId n, double p, util::Rng& rng);

/// G(n,p) as a sorted-unique edge list: the edges Gnp produces (same RNG
/// draws) without the Graph's CSR build.
std::vector<Edge> GnpEdges(NodeId n, double p, util::Rng& rng);

/// Index of pair (u, u+1) in the row-major enumeration of the n(n-1)/2
/// pairs u < v (row u holds the n-1-u pairs (u, v > u)); RowStart(n, n) is
/// the pair count.
std::uint64_t RowStart(NodeId n, NodeId u);

/// Row boundaries of `shards` contiguous row ranges holding near-equal
/// pair counts: rows[0] = 0, rows[shards] = n, and rows[s] is the first row
/// whose pairs start at or after s/shards of all pairs. A function of
/// (n, shards) only.
std::vector<NodeId> PairBalancedRows(NodeId n, int shards);

/// G(n,p) restricted to the pairs of rows [row_begin, row_end), appended to
/// `out` in sorted order. Each gap between edges is a Geometric(p) skip
/// drawn from rng.StdExponential(); GnpEdges is the one-range case.
void AppendGnpRows(NodeId n, double p, NodeId row_begin, NodeId row_end,
                   util::Rng& rng, std::vector<Edge>& out);

/// Sharded G(n,p): shard s covers rows [rows[s], rows[s+1]) (see
/// PairBalancedRows), draws from Rng(MixSeed(seed, s)) into
/// shard_edges[s], and `out` receives the concatenation, which is sorted
/// without a sort. The list depends on (n, p, seed, rows) only, never on
/// how many lanes `run` has.
void ShardedGnpEdges(NodeId n, double p, std::uint64_t seed,
                     std::span<const NodeId> rows,
                     const util::ShardRunner& run,
                     std::vector<std::vector<Edge>>& shard_edges,
                     std::vector<Edge>& out);

/// Draws `count` pairs uniformly with replacement from the pairs of rows
/// [row_begin, row_end) and appends the distinct ones to `out` in sorted
/// order (`scratch` holds the draws).
void AppendRandomPairs(NodeId n, NodeId row_begin, NodeId row_end,
                       std::int64_t count, util::Rng& rng,
                       std::vector<std::uint64_t>& scratch,
                       std::vector<Edge>& out);

/// Makes sorted-unique `edges` connected: one union-find pass, then a
/// random chain (order from `rng`) through one representative of every
/// component — exactly #components-1 added edges, merged in sorted.
void RepairConnectivity(NodeId n, std::vector<Edge>& edges, util::Rng& rng);

/// G(n,p) with connectivity repaired (RepairConnectivity).
Graph ConnectedGnp(NodeId n, double p, util::Rng& rng);

/// Union of `cycles` random Hamiltonian cycles: a simple ~2·cycles-regular
/// graph that is connected and an expander whp — O(log n) diameter.
Graph RandomExpander(NodeId n, int cycles, util::Rng& rng);

/// `num_cliques` cliques of `clique_size` nodes chained by bridge edges:
/// diameter = 2·num_cliques - 1-ish; used to dial flooding time d
/// independently of N (experiment F3).
Graph PathOfCliques(NodeId num_cliques, NodeId clique_size);

/// Unit-square random geometric graph over given positions: edge iff
/// Euclidean distance <= radius.
struct Point2D {
  double x = 0.0;
  double y = 0.0;
};
Graph GeometricGraph(const std::vector<Point2D>& positions, double radius);

/// n uniform points in the unit square.
std::vector<Point2D> RandomPoints(NodeId n, util::Rng& rng);

}  // namespace sdn::graph
