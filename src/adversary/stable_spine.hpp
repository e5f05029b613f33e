// The workhorse oblivious adversary.
//
// Time is split into eras of `era_length` rounds. Era k has a spine S_k (a
// connected spanning subgraph drawn from the SpineSpec). Round r's topology:
//
//   G_r = S_k ∪ (S_{k-1} if r is within the first T-1 rounds of era k)
//         ∪ fresh volatile random edges (redrawn every round)
//
// Sliding-window correctness: every window of T consecutive rounds fits
// inside the "extended life" of some spine — S_k is present from the start of
// era k through the first T-1 rounds of era k+1, i.e. for era_length + T - 1
// consecutive rounds — so the window's intersection contains a connected
// spanning subgraph. (Changing spines at era boundaries WITHOUT the overlap
// would violate the promise for windows straddling the boundary; the
// T-interval property is a sliding-window property. Tests pin this down.)
//
// Volatile edges change every round, so topologies genuinely differ
// round-to-round even inside an era.
//
// Every random stream is keyed by position, not by call order: era k's
// spine draws from MixSeed(seed, k+1) (kGnp splits it further into one
// stream per row shard), and round r's volatile edges in row shard s from
// MixSeed(MixSeed(volatile seed, r), s). A round's edges are therefore a
// function of (seed, r) alone — rounds may be requested in any order, and
// the row shards (util::NodeShards(n) pair-balanced row ranges) can run on
// any number of lanes with the same result.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adversary/spine.hpp"
#include "net/adversary.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sdn::adversary {

struct StableSpineOptions {
  SpineSpec spine;
  /// Era length in rounds; default (0) means T.
  std::int64_t era_length = 0;
  /// Volatile random edges drawn per round: uniform pairs, split over the
  /// row shards in proportion to their pair counts (duplicates with spine
  /// edges or each other are harmless and collapse).
  std::int64_t volatile_edges = 0;
};

class StableSpineAdversary final : public net::Adversary {
 public:
  StableSpineAdversary(graph::NodeId n, int T, StableSpineOptions options,
                       std::uint64_t seed);

  [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }
  [[nodiscard]] int interval() const override { return t_; }
  graph::Graph TopologyFor(std::int64_t round,
                           const net::AdversaryView& view) override;
  /// Native delta: assembles the round's sorted edge list in a reused
  /// buffer and diffs it against `prev` — no per-round Graph (CSR build)
  /// at all.
  void DeltaFor(std::int64_t round, const net::AdversaryView& view,
                const graph::Graph& prev, graph::TopologyDelta& out) override;
  /// Fastest path: writes the round's full sorted-unique edge list straight
  /// into the caller's buffer, skipping both the Graph build and the diff.
  bool RoundEdgesInto(std::int64_t round, const net::AdversaryView& view,
                      std::vector<graph::Edge>& out) override;
  /// Spine generation and round assembly run their row shards on `run`.
  void SetShardRunner(const util::ShardRunner& run) override { run_ = run; }
  /// Certification fast path: every round is exactly
  /// spine ∪ (previous spine during overlap) ∪ volatile edges, with the
  /// era number as the spine's stable identity — the checker certifies
  /// windows by spine witness without ever materializing a delta.
  [[nodiscard]] bool has_composition() const override { return true; }
  [[nodiscard]] const graph::RoundComposition* Composition(
      std::int64_t round) const override {
    return round == comp_round_ ? &comp_ : nullptr;
  }
  /// Generator buffers: the two cached spines, the spine builder's shard
  /// runs, every row shard's era-overlap union and volatile scratch, and the
  /// assembly buffers. Each shard's buffers depend on its own rows alone, so
  /// the sum is the same at every thread count.
  [[nodiscard]] std::int64_t BufferBytes() const override;

  [[nodiscard]] std::string name() const override;

  /// The spine active in `round`'s era (for tests and d-calibration).
  [[nodiscard]] graph::Graph SpineForRound(std::int64_t round);

 private:
  /// One era's spine: its sorted-unique edge list (shared with composition
  /// consumers, never mutated once built) and where each row shard's edges
  /// begin in it.
  struct Spine {
    std::int64_t era = -1;
    std::shared_ptr<const std::vector<graph::Edge>> edges;
    std::vector<std::size_t> shard_begin;  // shards + 1 offsets
  };
  /// Reused per-round buffers of one row shard.
  struct Shard {
    std::vector<graph::Edge> overlap;  // this era's spine ∪ previous spine
    std::vector<graph::Edge> fresh;    // this round's volatile edges
    std::vector<std::uint64_t> draws;  // volatile pair draws before sorting
    std::vector<graph::Edge> inserts;  // fresh edges not in the base
    std::vector<std::size_t> insert_at;  // their positions in the base run
    std::size_t out_begin = 0;           // offset in the round's list
  };

  /// Spine of `era`, generated on a miss into the cache slot not holding
  /// `keep_era` (the other era the caller needs).
  const Spine& SpineFor(std::int64_t era, std::int64_t keep_era);
  /// Fills `out` with round's sorted, deduplicated edge list (spine ∪
  /// overlap spine ∪ volatile edges) and publishes its composition.
  void BuildRoundEdges(std::int64_t round, std::vector<graph::Edge>& out);

  graph::NodeId n_;
  int t_;
  StableSpineOptions options_;
  std::int64_t era_length_;
  std::uint64_t seed_;
  std::uint64_t volatile_seed_;
  util::ShardRunner run_;
  /// Spine builder buffers. Its row shards (graph::PairBalancedRows over
  /// util::NodeShards(n)) are the adversary's: spine generation, volatile
  /// draws and assembly all split at spine_scratch_.rows.
  SpineScratch spine_scratch_;
  std::array<Spine, 2> spines_;
  std::vector<Shard> shards_;
  std::int64_t overlap_era_ = -1;  // era whose union shards_[*].overlap hold
  std::vector<graph::Edge> round_edges_;  // DeltaFor's reused assembly buffer
  std::vector<graph::Edge> fresh_edges_;  // every shard's volatile edges
  graph::RoundComposition comp_;     // last built round's structure
  std::int64_t comp_round_ = -1;     // round comp_ describes
};

}  // namespace sdn::adversary
