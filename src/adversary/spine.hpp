// Spine specifications: the connected spanning subgraphs adversaries keep
// stable inside an era. The spine family controls the dynamic flooding time d
// of the run (expander/Gnp spines -> d = O(log N); path spine -> d = Θ(N);
// path-of-cliques -> d dialed by the clique count), which is how experiments
// separate the d- and N-dependence of each algorithm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::adversary {

enum class SpineKind {
  kPath,
  kStar,
  kBinaryTree,
  kRandomTree,
  kGnp,
  kExpander,
  kPathOfCliques,
};

struct SpineSpec {
  SpineKind kind = SpineKind::kExpander;
  /// Gnp edge probability; <= 0 means the default 2·ln(n)/n.
  double gnp_p = 0.0;
  /// Hamiltonian cycles unioned for kExpander.
  int expander_cycles = 2;
  /// Clique size for kPathOfCliques (node count must divide accordingly;
  /// a ragged final clique absorbs the remainder).
  graph::NodeId clique_size = 8;

  [[nodiscard]] std::string Name() const;
};

/// Reused buffers of one spine builder on n nodes: the row shards kGnp
/// generates in and their per-shard edge runs.
struct SpineScratch {
  /// rows = graph::PairBalancedRows(n, util::NodeShards(n)).
  explicit SpineScratch(graph::NodeId n);

  std::vector<graph::NodeId> rows;
  std::vector<std::vector<graph::Edge>> shard_edges;

  /// Capacity bytes (an adversary's generator-buffer gauge).
  [[nodiscard]] std::int64_t Bytes() const;
};

/// Builds one connected spanning spine's sorted-unique edge list into
/// `out` (`scratch` must be built for the same n). kGnp draws a seed from
/// `rng` and generates G(n,p) in scratch.rows' shards, shard s from
/// Rng(MixSeed(seed, s)) (graph::ShardedGnpEdges), then repairs
/// connectivity serially with `rng`; the list depends on (spec, n, rng)
/// only, never on `run`'s lanes. Deterministic shapes
/// (path/star/tree/cliques) get a random node relabeling from `rng` so eras
/// differ; the other random kinds draw from `rng` directly.
void MakeSpineEdges(const SpineSpec& spec, graph::NodeId n, util::Rng& rng,
                    const util::ShardRunner& run, SpineScratch& scratch,
                    std::vector<graph::Edge>& out);

/// The spine MakeSpineEdges builds (same draws, same edges), as a Graph.
graph::Graph MakeSpine(const SpineSpec& spec, graph::NodeId n, util::Rng& rng);

}  // namespace sdn::adversary
