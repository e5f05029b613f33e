#include "adversary/stable_spine.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace sdn::adversary {

namespace {

/// Stream tag of the volatile edges (keyed further by round and shard).
constexpr std::uint64_t kVolatileTag = 0xed9e5ULL;

/// First position in sorted `edges` whose row is >= `row`.
std::size_t RowBegin(const std::vector<graph::Edge>& edges,
                     graph::NodeId row) {
  return static_cast<std::size_t>(
      std::lower_bound(edges.begin(), edges.end(), row,
                       [](const graph::Edge& e, graph::NodeId r) {
                         return e.u < r;
                       }) -
      edges.begin());
}

template <typename T>
std::int64_t CapacityBytes(const std::vector<T>& v) {
  return static_cast<std::int64_t>(v.capacity() * sizeof(T));
}

}  // namespace

StableSpineAdversary::StableSpineAdversary(graph::NodeId n, int T,
                                           StableSpineOptions options,
                                           std::uint64_t seed)
    : n_(n),
      t_(T),
      options_(options),
      era_length_(options.era_length > 0 ? options.era_length : T),
      seed_(seed),
      volatile_seed_(util::MixSeed(seed, kVolatileTag)),
      spine_scratch_(n) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(T >= 1);
  // The T-1 round overlap must fit inside one era; otherwise a window can
  // straddle three spines while only one previous spine is retained.
  SDN_CHECK_MSG(era_length_ >= std::max<std::int64_t>(1, T - 1),
                "era_length must be >= T-1 (got " << era_length_ << " for T="
                                                  << T << ")");
  shards_.resize(spine_scratch_.rows.size() - 1);
}

const StableSpineAdversary::Spine& StableSpineAdversary::SpineFor(
    std::int64_t era, std::int64_t keep_era) {
  SDN_CHECK(era >= 0);
  for (const Spine& sp : spines_) {
    if (sp.era == era) return sp;
  }
  // Evict the older slot unless it holds the era the caller still needs.
  Spine& slot = spines_[0].era == keep_era ? spines_[1]
                : spines_[1].era == keep_era
                    ? spines_[0]
                    : (spines_[0].era < spines_[1].era ? spines_[0]
                                                       : spines_[1]);
  // A fresh vector per era: composition consumers (the checker's spine
  // cache, the async certification lane) may still hold the evicted one.
  auto edges = std::make_shared<std::vector<graph::Edge>>();
  util::Rng era_rng(util::MixSeed(seed_, static_cast<std::uint64_t>(era) + 1));
  MakeSpineEdges(options_.spine, n_, era_rng, run_, spine_scratch_, *edges);
  const std::vector<graph::NodeId>& rows = spine_scratch_.rows;
  slot.shard_begin.resize(rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    slot.shard_begin[s] = RowBegin(*edges, rows[s]);
  }
  slot.edges = std::move(edges);
  slot.era = era;
  return slot;
}

graph::Graph StableSpineAdversary::SpineForRound(std::int64_t round) {
  SDN_CHECK(round >= 1);
  const std::int64_t era = (round - 1) / era_length_;
  std::vector<graph::Edge> copy = *SpineFor(era, era - 1).edges;
  return graph::Graph(n_, std::move(copy), graph::Graph::SortedEdges{});
}

void StableSpineAdversary::BuildRoundEdges(std::int64_t round,
                                           std::vector<graph::Edge>& out) {
  SDN_CHECK(round >= 1);
  const std::int64_t era = (round - 1) / era_length_;
  const std::int64_t offset = (round - 1) % era_length_;
  // Overlap: previous era's spine persists through the first T-1 rounds of
  // this era so sliding T-windows keep a common connected spanning subgraph.
  const bool overlap = offset < t_ - 1 && era >= 1;
  const Spine& cur = SpineFor(era, era - 1);
  const Spine* prev = overlap ? &SpineFor(era - 1, era) : nullptr;
  const bool build_overlap = overlap && overlap_era_ != era;

  const std::int64_t volatile_count =
      n_ >= 2 ? std::max<std::int64_t>(0, options_.volatile_edges) : 0;
  const auto total_pairs = static_cast<__uint128_t>(graph::RowStart(n_, n_));
  const std::uint64_t round_seed =
      util::MixSeed(volatile_seed_, static_cast<std::uint64_t>(round));
  const auto shards = static_cast<int>(shards_.size());
  const std::vector<graph::NodeId>& rows = spine_scratch_.rows;

  // Shard s's base run: its rows of the spine, or of the era's cached
  // spine union during overlap rounds.
  const auto base_of = [&](std::size_t s) -> std::span<const graph::Edge> {
    if (overlap) return shards_[s].overlap;
    return {cur.edges->data() + cur.shard_begin[s],
            cur.shard_begin[s + 1] - cur.shard_begin[s]};
  };
  // Pass 1 per shard: the era-overlap union (once per era), the round's
  // volatile edges, and where each volatile edge lands in the base run.
  run_.Run(shards, [&](int shard) {
    const auto s = static_cast<std::size_t>(shard);
    Shard& sh = shards_[s];
    if (build_overlap) {
      const auto slice = [&](const Spine& sp) {
        return std::span<const graph::Edge>(
            sp.edges->data() + sp.shard_begin[s],
            sp.shard_begin[s + 1] - sp.shard_begin[s]);
      };
      graph::UnionSorted(slice(cur), slice(*prev), sh.overlap);
    }
    // The round's volatile_count uniform pairs, split over the shards in
    // proportion to their pair counts.
    const auto quota = [&](std::size_t k) {
      if (total_pairs == 0) return std::int64_t{0};
      return static_cast<std::int64_t>(
          static_cast<__uint128_t>(volatile_count) *
          graph::RowStart(n_, rows[k]) / total_pairs);
    };
    sh.fresh.clear();
    const std::int64_t count = quota(s + 1) - quota(s);
    if (count > 0) {
      util::Rng rng(util::MixSeed(round_seed, s));
      graph::AppendRandomPairs(n_, rows[s], rows[s + 1], count, rng,
                               sh.draws, sh.fresh);
    }
    // Galloping search from the previous insertion point: runs between
    // volatile edges average |base|/|volatile| elements, so probing
    // 1,2,4,... stays near the cursor instead of binary-searching the
    // whole remaining range.
    sh.inserts.clear();
    sh.insert_at.clear();
    const std::span<const graph::Edge> base = base_of(s);
    const graph::Edge* const b0 = base.data();
    const graph::Edge* b = b0;
    const graph::Edge* const be = b0 + base.size();
    for (const graph::Edge& f : sh.fresh) {
      if (b != be && *b < f) {
        std::size_t hi = 1;
        const auto rem = static_cast<std::size_t>(be - b);
        while (hi < rem && b[hi] < f) hi <<= 1;
        b = std::lower_bound(b + (hi >> 1) + 1, b + std::min(hi + 1, rem), f);
      }
      if (b != be && *b == f) continue;  // already a base edge
      sh.inserts.push_back(f);
      sh.insert_at.push_back(static_cast<std::size_t>(b - b0));
    }
  });
  if (build_overlap) overlap_era_ = era;

  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].out_begin = total;
    total += base_of(s).size() + shards_[s].inserts.size();
  }
  // Grows only past the previous size, so a reused buffer is not refilled.
  out.resize(total);
  // Pass 2 per shard: block-copy the base runs between insertion points
  // into the shard's slice of the round list. The shards' rows ascend, so
  // the slices concatenate into the sorted round list.
  run_.Run(shards, [&](int shard) {
    const auto s = static_cast<std::size_t>(shard);
    const Shard& sh = shards_[s];
    const std::span<const graph::Edge> base = base_of(s);
    graph::Edge* o = out.data() + sh.out_begin;
    std::size_t from = 0;
    for (std::size_t i = 0; i < sh.inserts.size(); ++i) {
      o = std::copy(base.begin() + static_cast<std::ptrdiff_t>(from),
                    base.begin() + static_cast<std::ptrdiff_t>(sh.insert_at[i]),
                    o);
      *o++ = sh.inserts[i];
      from = sh.insert_at[i];
    }
    std::copy(base.begin() + static_cast<std::ptrdiff_t>(from), base.end(), o);
  });

  fresh_edges_.clear();
  for (const Shard& sh : shards_) {
    fresh_edges_.insert(fresh_edges_.end(), sh.fresh.begin(), sh.fresh.end());
  }
  // Publish the round's structural claim (Composition): the round is
  // exactly core ∪ support ∪ fresh, with era numbers as pinned-set ids.
  // The per-era spine vectors double as the span-lifetime contract's
  // owners: a consumer pinning an era's spine (the checker's spine cache,
  // the async certification lane) holds the shared_ptr, so the set
  // survives era rotation with zero copies anywhere.
  comp_.core = {cur.edges->data(), cur.edges->size()};
  comp_.core_id = static_cast<std::uint64_t>(era);
  comp_.core_owner = cur.edges;
  if (prev != nullptr) {
    comp_.support = {prev->edges->data(), prev->edges->size()};
    comp_.support_id = static_cast<std::uint64_t>(era - 1);
    comp_.support_owner = prev->edges;
  } else {
    comp_.support = {};
    comp_.support_id = graph::RoundComposition::kNoId;
    comp_.support_owner.reset();
  }
  comp_.fresh = {fresh_edges_.data(), fresh_edges_.size()};
  comp_round_ = round;
}

std::int64_t StableSpineAdversary::BufferBytes() const {
  std::int64_t total = CapacityBytes(round_edges_) +
                       CapacityBytes(fresh_edges_) + spine_scratch_.Bytes();
  for (const Spine& sp : spines_) {
    total += CapacityBytes(sp.shard_begin);
    if (sp.edges != nullptr) total += CapacityBytes(*sp.edges);
  }
  for (const Shard& sh : shards_) {
    total += CapacityBytes(sh.overlap) + CapacityBytes(sh.fresh) +
             CapacityBytes(sh.draws) + CapacityBytes(sh.inserts) +
             CapacityBytes(sh.insert_at);
  }
  return total;
}

graph::Graph StableSpineAdversary::TopologyFor(std::int64_t round,
                                               const net::AdversaryView&) {
  std::vector<graph::Edge> merged;
  BuildRoundEdges(round, merged);
  return graph::Graph(n_, std::move(merged), graph::Graph::SortedEdges{});
}

void StableSpineAdversary::DeltaFor(std::int64_t round,
                                    const net::AdversaryView&,
                                    const graph::Graph& prev,
                                    graph::TopologyDelta& out) {
  BuildRoundEdges(round, round_edges_);
  graph::DiffSorted(prev.Edges(), round_edges_, out);
}

bool StableSpineAdversary::RoundEdgesInto(std::int64_t round,
                                          const net::AdversaryView&,
                                          std::vector<graph::Edge>& out) {
  BuildRoundEdges(round, out);
  return true;
}

std::string StableSpineAdversary::name() const {
  std::ostringstream os;
  os << "spine[" << options_.spine.Name() << ",era=" << era_length_
     << ",vol=" << options_.volatile_edges << "]";
  return os.str();
}

}  // namespace sdn::adversary
