#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "graph/algorithms.hpp"
#include "util/check.hpp"

namespace sdn::graph {

Graph Path(NodeId n) {
  SDN_CHECK(n >= 1);
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, edges);
}

Graph Cycle(NodeId n) {
  SDN_CHECK(n >= 3);
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(NodeId{0}, n - 1);
  return Graph(n, edges);
}

Graph Star(NodeId n) {
  SDN_CHECK(n >= 1);
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(NodeId{0}, i);
  return Graph(n, edges);
}

Graph Complete(NodeId n) {
  SDN_CHECK(n >= 1);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph(n, edges);
}

Graph GridGraph(NodeId rows, NodeId cols) {
  SDN_CHECK(rows >= 1 && cols >= 1);
  const auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  std::vector<Edge> edges;
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph(rows * cols, edges);
}

Graph BinaryTree(NodeId n) {
  SDN_CHECK(n >= 1);
  std::vector<Edge> edges;
  for (NodeId i = 1; i < n; ++i) edges.emplace_back(i, (i - 1) / 2);
  return Graph(n, edges);
}

Graph Hypercube(int dim) {
  SDN_CHECK(dim >= 0 && dim < 30);
  const NodeId n = NodeId{1} << dim;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (int b = 0; b < dim; ++b) {
      const NodeId v = u ^ (NodeId{1} << b);
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return Graph(n, edges);
}

Graph Barbell(NodeId n) {
  SDN_CHECK(n >= 2);
  const NodeId left = (n + 1) / 2;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < left; ++u) {
    for (NodeId v = u + 1; v < left; ++v) edges.emplace_back(u, v);
  }
  for (NodeId u = left; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(left - 1, left);
  return Graph(n, edges);
}

Graph RandomTree(NodeId n, util::Rng& rng) {
  SDN_CHECK(n >= 1);
  if (n == 1) return Graph(1);
  if (n == 2) {
    const Edge e(0, 1);
    return Graph(2, std::span<const Edge>(&e, 1));
  }
  // Decode a uniform random Prüfer sequence of length n-2.
  std::vector<NodeId> prufer(static_cast<std::size_t>(n) - 2);
  for (auto& p : prufer) p = static_cast<NodeId>(rng.UniformU64(static_cast<std::uint64_t>(n)));
  std::vector<NodeId> degree(static_cast<std::size_t>(n), 1);
  for (const NodeId p : prufer) ++degree[static_cast<std::size_t>(p)];
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  // ptr/leaf scan variant: O(n) total.
  NodeId ptr = 0;
  while (degree[static_cast<std::size_t>(ptr)] != 1) ++ptr;
  NodeId leaf = ptr;
  for (const NodeId p : prufer) {
    edges.emplace_back(leaf, p);
    if (--degree[static_cast<std::size_t>(p)] == 1 && p < ptr) {
      leaf = p;
    } else {
      ++ptr;
      while (degree[static_cast<std::size_t>(ptr)] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.emplace_back(leaf, n - 1);
  return Graph(n, edges);
}

std::uint64_t RowStart(NodeId n, NodeId u) {
  const auto un = static_cast<std::uint64_t>(n);
  const auto uu = static_cast<std::uint64_t>(u);
  // Rows 0..u-1 hold (n-1) + (n-2) + ... + (n-u) pairs.
  return uu * (un - 1) - uu * (uu - 1) / 2;
}

std::vector<NodeId> PairBalancedRows(NodeId n, int shards) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(shards >= 1);
  const auto total = static_cast<__uint128_t>(RowStart(n, n));
  std::vector<NodeId> rows(static_cast<std::size_t>(shards) + 1);
  rows[0] = 0;
  rows[static_cast<std::size_t>(shards)] = n;
  for (int s = 1; s < shards; ++s) {
    const auto target = static_cast<std::uint64_t>(
        total * static_cast<unsigned>(s) / static_cast<unsigned>(shards));
    // First row whose pairs start at or after the target; RowStart is
    // increasing in u.
    NodeId lo = rows[static_cast<std::size_t>(s) - 1];
    NodeId hi = n;
    while (lo < hi) {
      const NodeId mid = lo + (hi - lo) / 2;
      if (RowStart(n, mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    rows[static_cast<std::size_t>(s)] = lo;
  }
  return rows;
}

void AppendGnpRows(NodeId n, double p, NodeId row_begin, NodeId row_end,
                   util::Rng& rng, std::vector<Edge>& out) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(p >= 0.0 && p <= 1.0);
  SDN_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= n);
  const std::uint64_t first = RowStart(n, row_begin);
  const std::uint64_t total = RowStart(n, row_end) - first;
  if (p <= 0.0 || total == 0) return;
  if (p >= 1.0) {
    out.reserve(out.size() + static_cast<std::size_t>(total));
    for (NodeId u = row_begin; u < row_end; ++u) {
      for (NodeId v = u + 1; v < n; ++v) out.emplace_back(u, v);
    }
    return;
  }
  // Geometric skipping over the range's pair enumeration: O(E) expected.
  // The number of non-edges before the next edge is Geometric(p), drawn as
  // floor(Exp(1) / lambda) with lambda = -log(1-p) (P(skip >= k) =
  // exp(-lambda k) = (1-p)^k) from the ziggurat exponential, so the loop
  // calls no logarithm per edge. idx -> (u,v) tracks the current row
  // incrementally: idx only grows, so the row advance is amortized O(1).
  out.reserve(out.size() +
              static_cast<std::size_t>(p * static_cast<double>(total)) + 16);
  const double inv_lambda = -1.0 / std::log1p(-p);
  const auto ftotal = static_cast<double>(total);
  const auto un = static_cast<std::uint64_t>(n);
  std::uint64_t row = static_cast<std::uint64_t>(row_begin);
  std::uint64_t row_start = 0;  // index of (row, row+1), relative to first
  std::uint64_t idx = 0;
  for (;;) {
    const double skip = rng.StdExponential() * inv_lambda;
    // Compared in double first: a skip past the range ends it, and the
    // cast below would overflow for astronomically small p.
    if (skip >= ftotal - static_cast<double>(idx)) break;
    idx += static_cast<std::uint64_t>(skip);
    if (idx >= total) break;
    while (idx >= row_start + (un - 1 - row)) {
      row_start += un - 1 - row;
      ++row;
    }
    out.emplace_back(static_cast<NodeId>(row),
                     static_cast<NodeId>(row + 1 + (idx - row_start)));
    ++idx;
  }
  // Pairs are visited in ascending enumeration order: already sorted.
}

std::vector<Edge> GnpEdges(NodeId n, double p, util::Rng& rng) {
  std::vector<Edge> edges;
  AppendGnpRows(n, p, 0, n, rng, edges);
  return edges;
}

Graph Gnp(NodeId n, double p, util::Rng& rng) {
  return Graph(n, GnpEdges(n, p, rng), Graph::SortedEdges{});
}

void ShardedGnpEdges(NodeId n, double p, std::uint64_t seed,
                     std::span<const NodeId> rows,
                     const util::ShardRunner& run,
                     std::vector<std::vector<Edge>>& shard_edges,
                     std::vector<Edge>& out) {
  SDN_CHECK(rows.size() >= 2);
  const auto shards = static_cast<int>(rows.size() - 1);
  shard_edges.resize(static_cast<std::size_t>(shards));
  run.Run(shards, [&](int s) {
    const auto si = static_cast<std::size_t>(s);
    std::vector<Edge>& mine = shard_edges[si];
    mine.clear();
    util::Rng rng(util::MixSeed(seed, static_cast<std::uint64_t>(s)));
    AppendGnpRows(n, p, rows[si], rows[si + 1], rng, mine);
  });
  // Shard s holds rows [rows[s], rows[s+1]) in order, so the concatenation
  // is sorted without a sort.
  std::size_t total = 0;
  for (const std::vector<Edge>& e : shard_edges) total += e.size();
  out.clear();
  out.reserve(total);
  for (const std::vector<Edge>& e : shard_edges) {
    out.insert(out.end(), e.begin(), e.end());
  }
}

void AppendRandomPairs(NodeId n, NodeId row_begin, NodeId row_end,
                       std::int64_t count, util::Rng& rng,
                       std::vector<std::uint64_t>& scratch,
                       std::vector<Edge>& out) {
  SDN_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= n);
  const std::uint64_t first = RowStart(n, row_begin);
  const std::uint64_t total = RowStart(n, row_end) - first;
  if (count <= 0 || total == 0) return;
  scratch.clear();
  for (std::int64_t i = 0; i < count; ++i) scratch.push_back(rng.UniformU64(total));
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  const auto un = static_cast<std::uint64_t>(n);
  std::uint64_t row = static_cast<std::uint64_t>(row_begin);
  std::uint64_t row_start = 0;
  for (const std::uint64_t idx : scratch) {
    while (idx >= row_start + (un - 1 - row)) {
      row_start += un - 1 - row;
      ++row;
    }
    out.emplace_back(static_cast<NodeId>(row),
                     static_cast<NodeId>(row + 1 + (idx - row_start)));
  }
}

void RepairConnectivity(NodeId n, std::vector<Edge>& edges, util::Rng& rng) {
  UnionFind uf(static_cast<std::size_t>(n));
  for (const Edge& e : edges) {
    uf.Union(e.u, e.v);
    if (uf.num_components() == 1) return;  // the rest cannot split it
  }
  if (uf.num_components() == 1) return;
  // Collect one representative per component, shuffle, and chain them.
  // Representatives of different components are never adjacent, so the
  // chain adds only new edges.
  std::vector<NodeId> reps;
  for (NodeId u = 0; u < n; ++u) {
    if (uf.Find(u) == u) reps.push_back(u);
  }
  rng.Shuffle(std::span<NodeId>(reps));
  const auto mid = static_cast<std::ptrdiff_t>(edges.size());
  for (std::size_t i = 0; i + 1 < reps.size(); ++i) {
    edges.emplace_back(reps[i], reps[i + 1]);
  }
  std::sort(edges.begin() + mid, edges.end());
  std::inplace_merge(edges.begin(), edges.begin() + mid, edges.end());
}

Graph ConnectedGnp(NodeId n, double p, util::Rng& rng) {
  std::vector<Edge> edges = GnpEdges(n, p, rng);
  RepairConnectivity(n, edges, rng);
  return Graph(n, std::move(edges), Graph::SortedEdges{});
}

Graph RandomExpander(NodeId n, int cycles, util::Rng& rng) {
  SDN_CHECK(n >= 3);
  SDN_CHECK(cycles >= 1);
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::vector<Edge> edges;
  for (int c = 0; c < cycles; ++c) {
    for (NodeId i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.Shuffle(std::span<NodeId>(order));
    for (std::size_t i = 0; i < order.size(); ++i) {
      const NodeId a = order[i];
      const NodeId b = order[(i + 1) % order.size()];
      if (a != b) edges.emplace_back(a, b);
    }
  }
  return Graph(n, edges);
}

Graph PathOfCliques(NodeId num_cliques, NodeId clique_size) {
  SDN_CHECK(num_cliques >= 1 && clique_size >= 1);
  const NodeId n = num_cliques * clique_size;
  std::vector<Edge> edges;
  for (NodeId k = 0; k < num_cliques; ++k) {
    const NodeId base = k * clique_size;
    for (NodeId u = 0; u < clique_size; ++u) {
      for (NodeId v = u + 1; v < clique_size; ++v) {
        edges.emplace_back(base + u, base + v);
      }
    }
    if (k + 1 < num_cliques) {
      // Bridge: last node of clique k to first node of clique k+1.
      edges.emplace_back(base + clique_size - 1, base + clique_size);
    }
  }
  return Graph(n, edges);
}

Graph GeometricGraph(const std::vector<Point2D>& positions, double radius) {
  const auto n = static_cast<NodeId>(positions.size());
  const double r2 = radius * radius;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = positions[static_cast<std::size_t>(u)].x -
                        positions[static_cast<std::size_t>(v)].x;
      const double dy = positions[static_cast<std::size_t>(u)].y -
                        positions[static_cast<std::size_t>(v)].y;
      if (dx * dx + dy * dy <= r2) edges.emplace_back(u, v);
    }
  }
  return Graph(n, edges);
}

std::vector<Point2D> RandomPoints(NodeId n, util::Rng& rng) {
  std::vector<Point2D> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p.x = rng.UniformDouble();
    p.y = rng.UniformDouble();
  }
  return pts;
}

}  // namespace sdn::graph
