// Classic graph algorithms used by generators, validators and metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace sdn::graph {

/// Disjoint-set union with union-by-size and path halving. Find/Union are
/// inline: the connected-generator hot loop calls Union once per candidate
/// edge, where an out-of-line call costs as much as the find itself.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  /// Reinitializes to n singleton sets, reusing the existing buffers when
  /// large enough (the streaming T-interval checker re-runs scratch
  /// union-finds every era; reallocating per use would dominate).
  void Reset(std::size_t n);

  NodeId Find(NodeId x) {
    SDN_CHECK(x >= 0 && static_cast<std::size_t>(x) < parent_.size());
    while (parent_[static_cast<std::size_t>(x)] != x) {
      const NodeId grand = parent_[static_cast<std::size_t>(
          parent_[static_cast<std::size_t>(x)])];
      parent_[static_cast<std::size_t>(x)] = grand;
      x = grand;
    }
    return x;
  }

  /// Returns true if x and y were in different sets (i.e. a merge happened).
  bool Union(NodeId x, NodeId y) {
    NodeId rx = Find(x);
    NodeId ry = Find(y);
    if (rx == ry) return false;
    if (size_[static_cast<std::size_t>(rx)] <
        size_[static_cast<std::size_t>(ry)]) {
      std::swap(rx, ry);
    }
    parent_[static_cast<std::size_t>(ry)] = rx;
    size_[static_cast<std::size_t>(rx)] += size_[static_cast<std::size_t>(ry)];
    --components_;
    return true;
  }

  [[nodiscard]] std::size_t num_components() const { return components_; }

  /// Byte footprint of the owned buffers (memory-budget gauges).
  [[nodiscard]] std::int64_t ApproxBytes() const {
    return static_cast<std::int64_t>(parent_.capacity() * sizeof(NodeId) +
                                     size_.capacity() * sizeof(std::int32_t));
  }

 private:
  std::vector<NodeId> parent_;
  std::vector<std::int32_t> size_;
  std::size_t components_ = 0;
};

/// Incremental spanning forest over a changing edge set, built for the
/// streaming T-interval checker's stable set. Insertions are near-O(α)
/// (one union); deleting a non-tree edge is O(log tree) and leaves the
/// forest valid; deleting a tree edge marks the structure dirty, and the
/// owner re-derives it lazily with BeginRebuild, one Insert per surviving
/// edge and EndRebuild — one linear pass over the stable set, paid only in
/// rounds where a tree edge left.
/// While dirty, Insert/Erase become no-ops (the rebuild re-derives
/// everything) and the connectivity accessors are off-limits (checked).
class IncrementalForest {
 public:
  explicit IncrementalForest(NodeId n);

  /// Drops all edges and re-targets to n nodes (buffer-reusing).
  void Reset(NodeId n);

  /// Starts a rebuild: clears the forest and the dirty flag; the caller
  /// then Inserts every surviving edge and closes with EndRebuild. Rebuild
  /// inserts append their tree keys in O(1) whatever the key order, so a
  /// rebuild is linear in the edges walked — never the O(tree²) memmove of
  /// sorted inserts.
  void BeginRebuild();

  /// Closes a rebuild: sorts the appended tree keys once (a linear scan
  /// when they were inserted in ascending key order, as the streaming
  /// checker does). Erase closes an open rebuild implicitly.
  void EndRebuild();

  /// A present edge (key = packed endpoint pair) joins the set. Records it
  /// as a tree edge iff the union merged two components.
  void Insert(NodeId u, NodeId v, std::uint64_t key);

  /// The edge leaves the set. Non-tree edges keep the forest valid; a tree
  /// edge marks it dirty until the next BeginRebuild pass.
  void Erase(std::uint64_t key);

  [[nodiscard]] bool dirty() const { return dirty_; }
  [[nodiscard]] bool connected() const {
    SDN_CHECK(!dirty_);
    return uf_.num_components() == 1;
  }
  /// Spanning-forest size (n - #components) of the current edge set.
  [[nodiscard]] std::int64_t forest_size() const {
    SDN_CHECK(!dirty_);
    return static_cast<std::int64_t>(n_) -
           static_cast<std::int64_t>(uf_.num_components());
  }
  [[nodiscard]] std::int64_t tree_edges() const {
    return static_cast<std::int64_t>(tree_.size());
  }

  /// Byte footprint of the owned buffers (memory-budget gauges).
  [[nodiscard]] std::int64_t ApproxBytes() const {
    return uf_.ApproxBytes() +
           static_cast<std::int64_t>(tree_.capacity() * sizeof(std::uint64_t));
  }

 private:
  NodeId n_ = 0;
  UnionFind uf_;
  /// Keys of the current spanning forest's edges: sorted, except between
  /// BeginRebuild and EndRebuild, when they are appended in insert order.
  std::vector<std::uint64_t> tree_;
  bool dirty_ = false;
  bool rebuilding_ = false;
};

/// BFS hop distances from `source`; unreachable nodes get -1.
std::vector<std::int32_t> BfsDistances(const Graph& g, NodeId source);

bool IsConnected(const Graph& g);

/// Component label per node (labels are representative node ids, dense order
/// of first appearance is NOT guaranteed).
std::vector<NodeId> ComponentLabels(const Graph& g);

/// Max BFS distance from `source` to any node; -1 if g is disconnected.
std::int32_t Eccentricity(const Graph& g, NodeId source);

/// Exact diameter via all-sources BFS (O(N·E) — fine at simulator scales);
/// -1 if disconnected, 0 for a single node.
std::int32_t Diameter(const Graph& g);

/// Edges of a BFS spanning tree rooted at `root`.
/// Returns nullopt if g is disconnected.
std::optional<std::vector<Edge>> BfsSpanningTree(const Graph& g, NodeId root);

/// Number of edges in a maximal spanning forest (n - #components).
std::int64_t SpanningForestSize(const Graph& g);

}  // namespace sdn::graph
