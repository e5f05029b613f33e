#include "adversary/spine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace sdn::adversary {

namespace {

/// Applies a uniform random relabeling to g's nodes.
graph::Graph Relabel(const graph::Graph& g, util::Rng& rng) {
  const graph::NodeId n = g.num_nodes();
  std::vector<graph::NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), graph::NodeId{0});
  rng.Shuffle(std::span<graph::NodeId>(perm));
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const graph::Edge& e : g.Edges()) {
    edges.emplace_back(perm[static_cast<std::size_t>(e.u)],
                       perm[static_cast<std::size_t>(e.v)]);
  }
  return graph::Graph(n, edges);
}

graph::Graph MakePathOfCliques(graph::NodeId n, graph::NodeId clique_size) {
  SDN_CHECK(clique_size >= 1);
  const graph::NodeId size = std::min(clique_size, n);
  const graph::NodeId full = n / size;
  const graph::NodeId remainder = n - full * size;
  graph::Graph base = graph::PathOfCliques(std::max<graph::NodeId>(full, 1), size);
  if (remainder == 0 && full >= 1) return base;
  // Absorb leftover nodes into a ragged final clique chained to the rest.
  std::vector<graph::Edge> edges(base.Edges().begin(), base.Edges().end());
  const graph::NodeId base_n = base.num_nodes();
  for (graph::NodeId u = base_n; u < n; ++u) {
    for (graph::NodeId v = std::max<graph::NodeId>(base_n, u - size); v < u; ++v) {
      edges.emplace_back(u, v);
    }
    if (u == base_n && base_n > 0) edges.emplace_back(u, base_n - 1);
  }
  return graph::Graph(n, edges);
}

}  // namespace

std::string SpineSpec::Name() const {
  std::ostringstream os;
  switch (kind) {
    case SpineKind::kPath:
      os << "path";
      break;
    case SpineKind::kStar:
      os << "star";
      break;
    case SpineKind::kBinaryTree:
      os << "btree";
      break;
    case SpineKind::kRandomTree:
      os << "rtree";
      break;
    case SpineKind::kGnp:
      os << "gnp";
      if (gnp_p > 0.0) os << "(p=" << gnp_p << ")";
      break;
    case SpineKind::kExpander:
      os << "expander(c=" << expander_cycles << ")";
      break;
    case SpineKind::kPathOfCliques:
      os << "cliques(m=" << clique_size << ")";
      break;
  }
  return os.str();
}

SpineScratch::SpineScratch(graph::NodeId n)
    : rows(graph::PairBalancedRows(n, util::NodeShards(n))) {}

std::int64_t SpineScratch::Bytes() const {
  auto total = static_cast<std::int64_t>(rows.capacity() *
                                         sizeof(graph::NodeId));
  for (const std::vector<graph::Edge>& e : shard_edges) {
    total += static_cast<std::int64_t>(e.capacity() * sizeof(graph::Edge));
  }
  return total;
}

void MakeSpineEdges(const SpineSpec& spec, graph::NodeId n, util::Rng& rng,
                    const util::ShardRunner& run, SpineScratch& scratch,
                    std::vector<graph::Edge>& out) {
  SDN_CHECK(n >= 1);
  graph::Graph g;
  switch (spec.kind) {
    case SpineKind::kGnp: {
      const double p =
          spec.gnp_p > 0.0
              ? spec.gnp_p
              : std::min(1.0, 2.0 *
                                  std::log(static_cast<double>(
                                      std::max<graph::NodeId>(n, 2))) /
                                  static_cast<double>(n));
      SDN_CHECK(scratch.rows.back() == n);
      const std::uint64_t seed = rng();
      graph::ShardedGnpEdges(n, p, seed, scratch.rows, run,
                             scratch.shard_edges, out);
      graph::RepairConnectivity(n, out, rng);
      return;
    }
    case SpineKind::kPath:
      g = Relabel(graph::Path(n), rng);
      break;
    case SpineKind::kStar:
      g = Relabel(graph::Star(n), rng);
      break;
    case SpineKind::kBinaryTree:
      g = Relabel(graph::BinaryTree(n), rng);
      break;
    case SpineKind::kRandomTree:
      g = graph::RandomTree(n, rng);
      break;
    case SpineKind::kExpander:
      g = n < 3 ? graph::Path(n)
                : graph::RandomExpander(n, spec.expander_cycles, rng);
      break;
    case SpineKind::kPathOfCliques:
      g = Relabel(MakePathOfCliques(n, spec.clique_size), rng);
      break;
  }
  out.assign(g.Edges().begin(), g.Edges().end());
}

graph::Graph MakeSpine(const SpineSpec& spec, graph::NodeId n, util::Rng& rng) {
  SpineScratch scratch(n);
  std::vector<graph::Edge> edges;
  MakeSpineEdges(spec, n, rng, util::ShardRunner(), scratch, edges);
  return graph::Graph(n, std::move(edges), graph::Graph::SortedEdges{});
}

}  // namespace sdn::adversary
