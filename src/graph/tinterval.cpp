#include "graph/tinterval.hpp"

#include <algorithm>
#include <limits>

#include "graph/algorithms.hpp"
#include "util/check.hpp"

namespace sdn::graph {

namespace {

constexpr std::uint64_t kNoId = RoundComposition::kNoId;

/// splitmix64 step — the composition spot-checker's deterministic sampler.
std::uint64_t Mix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool ContainsEdge(std::span<const Edge> sorted, const Edge& e) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), e, [](const Edge& a, const Edge& b) {
        return a.u != b.u ? a.u < b.u : a.v < b.v;
      });
  return it != sorted.end() && it->u == e.u && it->v == e.v;
}

/// out = a ∩ b over sorted-unique edge lists.
void IntersectSorted(const std::vector<Edge>& a, const std::vector<Edge>& b,
                     std::vector<Edge>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const Edge& x = a[i];
    const Edge& y = b[j];
    if (x.u == y.u && x.v == y.v) {
      out.push_back(x);
      ++i;
      ++j;
    } else if (x.u != y.u ? x.u < y.u : x.v < y.v) {
      ++i;
    } else {
      ++j;
    }
  }
}

/// Gaps up to this many run entries are scanned linearly: dense deltas
/// flip every few entries, where a gallop's unpredictable branches and a
/// bulk copy's call cost more than walking the gap.
constexpr std::size_t kShortGap = 8;

/// First index in [lo, keys.size()) whose key is >= x: a linear scan of
/// the first kShortGap entries, then exponential probes and a binary search
/// inside the last doubling — O(log gap).
std::size_t Gallop(const std::vector<std::uint64_t>& keys, std::size_t lo,
                   std::uint64_t x) {
  const std::size_t hi = keys.size();
  for (const std::size_t end = std::min(lo + kShortGap, hi); lo < end; ++lo) {
    if (keys[lo] >= x) return lo;
  }
  if (lo == hi || keys[lo] >= x) return lo;
  std::size_t below = lo;  // keys[below] < x
  std::size_t step = 1;
  while (below + step < hi && keys[below + step] < x) {
    below += step;
    step <<= 1;
  }
  const auto first = keys.begin() + static_cast<std::ptrdiff_t>(below + 1);
  const auto last =
      keys.begin() + static_cast<std::ptrdiff_t>(std::min(below + step, hi));
  return static_cast<std::size_t>(std::lower_bound(first, last, x) -
                                  keys.begin());
}

}  // namespace

TIntervalReport ValidateTInterval(std::span<const Graph> sequence, int T,
                                  ValidateMode mode) {
  SDN_CHECK(T >= 1);
  TIntervalReport report;
  if (sequence.empty()) return report;
  const NodeId n = sequence[0].num_nodes();
  for (const Graph& g : sequence) SDN_CHECK(g.num_nodes() == n);
  report.min_stable_forest = n >= 1 ? n - 1 : 0;

  const auto len = static_cast<std::int64_t>(sequence.size());
  const std::int64_t window = std::min<std::int64_t>(T, len);
  for (std::int64_t start = 0; start + window <= len; ++start) {
    const Graph common = EdgeIntersection(
        sequence.subspan(static_cast<std::size_t>(start),
                         static_cast<std::size_t>(window)));
    const std::int64_t forest = SpanningForestSize(common);
    report.min_stable_forest = std::min(report.min_stable_forest, forest);
    ++report.windows_checked;
    if (!IsConnected(common) && report.ok) {
      report.ok = false;
      report.first_bad_window = start;
      if (mode == ValidateMode::kEarlyExit) return report;
    }
  }
  return report;
}

TIntervalChecker::TIntervalChecker(NodeId n, int T)
    : n_(n),
      t_(T),
      cert_(T),
      min_stable_forest_(n - 1),
      boot_forest_(n - 1),
      forest_(n) {
  SDN_CHECK(T >= 1);
  SDN_CHECK(n >= 1);
  aging_.resize(static_cast<std::size_t>(t_));
}

bool TIntervalChecker::Push(const Graph& g) {
  SDN_CHECK(g.num_nodes() == n_);
  if (mode_ == Mode::kNone) mode_ = Mode::kGraph;
  SDN_CHECK_MSG(mode_ == Mode::kGraph,
                "TIntervalChecker feed methods must not be mixed");
  DiffSorted(prev_edges_, g.Edges(), scratch_delta_);
  prev_edges_.assign(g.Edges().begin(), g.Edges().end());
  return PushDeltaImpl(scratch_delta_);
}

bool TIntervalChecker::PushDelta(const TopologyDelta& delta) {
  if (mode_ == Mode::kNone) mode_ = Mode::kDelta;
  SDN_CHECK_MSG(mode_ == Mode::kDelta,
                "TIntervalChecker feed methods must not be mixed");
  return PushDeltaImpl(delta);
}

bool TIntervalChecker::PushDeltaImpl(const TopologyDelta& delta) {
  const std::int64_t r = ++rounds_seen_;
  SDN_CHECK_MSG(r <= std::numeric_limits<std::int32_t>::max(),
                "T-interval checker: stream exceeds 2^31 rounds");
  // The window [r-T+1, r] intersection is exactly the present edges with
  // born <= threshold.
  const std::int64_t threshold = r - t_ + 1;

  // Added edges (re)appear now and can age into the stable set at round
  // r + T - 1; for T == 1 that is this very round, handled by the aging
  // pass below reading the bucket entries just pushed.
  MergeDelta(delta, r, threshold,
             aging_[static_cast<std::size_t>((r + t_ - 1) % t_)]);

  // Aging pass: edges scheduled for this round join the stable set if they
  // are still present and were not re-added since scheduling. The bucket
  // is one round's sorted `added` list, so one forward gallop finds them.
  auto& bucket = aging_[static_cast<std::size_t>(r % t_)];
  std::size_t at = 0;
  for (const std::uint64_t key : bucket) {
    at = Gallop(run_keys_, at, key);
    if (at < run_keys_.size() && run_keys_[at] == key &&
        run_born_[at] == threshold) {
      ++stable_count_;
      const Edge e = EdgeOf(key);
      forest_.Insert(e.u, e.v, key);  // near-O(α) union
    }
  }
  bucket.clear();

  if (r >= t_) {
    if (forest_.dirty()) RebuildForest(threshold);
    const bool connected = forest_.connected();
    min_stable_forest_ =
        std::min(min_stable_forest_, forest_.forest_size());
    if (!connected) {
      if (ok_) first_bad_window_ = r - t_;
      ok_ = false;
      if (cert_ > 0) {
        cert_ = std::min(cert_, LargestConnectedSuffix(r, t_));
      }
    }
  } else {
    EvaluateBootstrap(r);
  }
  return ok_;
}

void TIntervalChecker::MergeDelta(const TopologyDelta& delta, std::int64_t r,
                                  std::int64_t threshold,
                                  std::vector<std::uint64_t>& incoming) {
  if (delta.empty()) return;
  // One merge walk over the delta's flips in key order (the delta contract
  // makes `added` and `removed` sorted and disjoint). Before each flip the
  // unchanged entries are copied over: element by element for a short gap
  // (dense deltas), by a gallop and one bulk copy past that. The spare
  // buffers are sized up front and written through raw pointers; resizing
  // zero-fills only growth, and the final resize only shrinks. The exact
  // reserve keeps resize's doubling growth from padding the capacity.
  const std::size_t old_size = run_keys_.size();
  const std::size_t bound = old_size + delta.added.size();
  spare_keys_.reserve(bound);
  spare_born_.reserve(bound);
  spare_keys_.resize(bound);
  spare_born_.resize(bound);
  const std::uint64_t* const keys = run_keys_.data();
  const std::uint32_t* const born = run_born_.data();
  std::uint64_t* out_keys = spare_keys_.data();
  std::uint32_t* out_born = spare_born_.data();
  const auto now = static_cast<std::uint32_t>(r);
  std::size_t i = 0;
  std::size_t a = 0;
  std::size_t d = 0;
  while (a < delta.added.size() || d < delta.removed.size()) {
    const bool take_add =
        a < delta.added.size() &&
        (d == delta.removed.size() || delta.added[a] < delta.removed[d]);
    const Edge& e = take_add ? delta.added[a] : delta.removed[d];
    const std::uint64_t key = Key(e);
    const std::size_t short_end = std::min(i + kShortGap, old_size);
    while (i < short_end && keys[i] < key) {
      *out_keys++ = keys[i];
      *out_born++ = born[i];
      ++i;
    }
    if (i == short_end && i < old_size && keys[i] < key) {
      const std::size_t at = Gallop(run_keys_, i, key);
      out_keys = std::copy(keys + i, keys + at, out_keys);
      out_born = std::copy(born + i, born + at, out_born);
      i = at;
    }
    if (take_add) {
      SDN_CHECK_MSG(i == old_size || keys[i] != key,
                    "T-interval checker: delta adds present edge ("
                        << e.u << "," << e.v << ") at round " << r);
      *out_keys++ = key;
      *out_born++ = now;
      incoming.push_back(key);
      ++a;
    } else {
      SDN_CHECK_MSG(i < old_size && keys[i] == key,
                    "T-interval checker: delta removes absent edge ("
                        << e.u << "," << e.v << ") at round " << r);
      if (born[i] <= threshold - 1) {
        // Was in the previous round's stable set; the intersection shrinks.
        --stable_count_;
        forest_.Erase(key);  // marks the forest dirty iff a tree edge
      }
      ++i;
      ++d;
    }
  }
  out_keys = std::copy(keys + i, keys + old_size, out_keys);
  std::copy(born + i, born + old_size, out_born);
  const auto size = static_cast<std::size_t>(out_keys - spare_keys_.data());
  spare_keys_.resize(size);
  spare_born_.resize(size);
  run_keys_.swap(spare_keys_);
  run_born_.swap(spare_born_);
}

void TIntervalChecker::RebuildForest(std::int64_t threshold) {
  // One sequential walk in key order, so the forest's tree keys append in
  // ascending order. Unions stop once the forest spans (n-1 tree edges: no
  // later insert can merge); the stable edges are still all counted.
  forest_.BeginRebuild();
  const auto spanning = static_cast<std::int64_t>(n_) - 1;
  std::int64_t counted = 0;
  for (std::size_t i = 0; i < run_keys_.size(); ++i) {
    if (run_born_[i] > threshold) continue;
    ++counted;
    if (forest_.tree_edges() < spanning) {
      const Edge e = EdgeOf(run_keys_[i]);
      forest_.Insert(e.u, e.v, run_keys_[i]);
    }
  }
  forest_.EndRebuild();
  SDN_CHECK_MSG(counted == stable_count_,
                "T-interval checker stable-set bookkeeping drifted: counted "
                    << stable_count_ << ", found " << counted);
}

void TIntervalChecker::EvaluateBootstrap(std::int64_t r) {
  // Streams shorter than T have no complete window yet; the promise
  // restricted to the rounds that exist is the prefix intersection
  // [1, r] = the present edges that have been in since round 1.
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  for (std::size_t i = 0; i < run_keys_.size(); ++i) {
    if (run_born_[i] <= 1) {
      const Edge e = EdgeOf(run_keys_[i]);
      scratch_uf_.Union(e.u, e.v);
    }
  }
  boot_forest_ = static_cast<std::int64_t>(n_) -
                 static_cast<std::int64_t>(scratch_uf_.num_components());
  const bool connected = scratch_uf_.num_components() == 1;
  if (!connected && cert_ > 0) {
    cert_ = std::min(cert_, LargestConnectedSuffix(r, r));
  }
}

std::int64_t TIntervalChecker::LargestConnectedSuffix(std::int64_t r,
                                                      std::int64_t cap) {
  // Bucket present edges by clamp(born - (r-cap+1), 0, cap-1); adding the
  // buckets in ascending order makes the union-find hold, after bucket i,
  // the intersection of the window [r-cap+1+i, r] — the first connected
  // prefix of buckets identifies the longest connected suffix window.
  const std::int64_t base = r - cap + 1;
  if (sweep_buckets_.size() < static_cast<std::size_t>(cap)) {
    sweep_buckets_.resize(static_cast<std::size_t>(cap));
  }
  for (std::int64_t i = 0; i < cap; ++i) {
    sweep_buckets_[static_cast<std::size_t>(i)].clear();
  }
  for (std::size_t i = 0; i < run_keys_.size(); ++i) {
    const std::int64_t idx =
        std::max<std::int64_t>(run_born_[i] - base, 0);
    sweep_buckets_[static_cast<std::size_t>(idx)].push_back(run_keys_[i]);
  }
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  for (std::int64_t i = 0; i < cap; ++i) {
    for (const std::uint64_t key : sweep_buckets_[static_cast<std::size_t>(i)]) {
      const Edge e = EdgeOf(key);
      scratch_uf_.Union(e.u, e.v);
    }
    if (scratch_uf_.num_components() == 1) return cap - i;
  }
  return 0;
}

bool TIntervalChecker::PushComposition(const RoundComposition& comp,
                                       std::span<const Edge> round_edges) {
  if (mode_ == Mode::kNone) mode_ = Mode::kComposition;
  SDN_CHECK_MSG(mode_ == Mode::kComposition,
                "TIntervalChecker feed methods must not be mixed");
  SDN_CHECK_MSG(comp.core_id != kNoId,
                "RoundComposition requires a core id");
  const std::int64_t r = ++rounds_seen_;
  if (ring_fresh_.empty()) {
    ring_fresh_.resize(static_cast<std::size_t>(t_));
    ring_ids_.assign(static_cast<std::size_t>(t_), {kNoId, kNoId});
    spines_.reserve(2 * static_cast<std::size_t>(t_));
  }
  const auto slot = static_cast<std::size_t>((r - 1) % t_);
  ring_fresh_[slot].assign(comp.fresh.begin(), comp.fresh.end());
  ring_ids_[slot] = {comp.core_id,
                     comp.support.empty() ? kNoId : comp.support_id};
  // Keep spine owners only for ids the last-T ring still references: the
  // witness test and the exact-window fallback read nothing older, and a
  // retained owner pins a whole spine the adversary has already retired.
  std::erase_if(spines_, [this](const SpineRecord& rec) {
    return std::none_of(ring_ids_.begin(), ring_ids_.end(),
                        [&rec](const std::array<std::uint64_t, 2>& ids) {
                          return ids[0] == rec.id || ids[1] == rec.id;
                        });
  });

  bool full_verify = false;
  EnsureSpineVerified(comp.core_id, comp.core, comp.core_owner, &full_verify);
  if (!comp.support.empty()) {
    SDN_CHECK_MSG(comp.support_id != kNoId,
                  "RoundComposition support span without an id");
    EnsureSpineVerified(comp.support_id, comp.support, comp.support_owner,
                        &full_verify);
  }
  CheckComposition(comp, round_edges, r, full_verify);

  const std::int64_t cap = std::min<std::int64_t>(t_, r);
  bool connected = false;
  std::int64_t forest = n_ - 1;
  if (FindWitness(r, cap) != kNoId) {
    // Some verified-connected pinned set is contained in every round of the
    // window: the window intersection contains a connected spanning
    // subgraph — the T-interval promise verbatim, no intersection needed.
    connected = true;
  } else {
    ExactWindow(r, cap, &connected, &forest);
  }
  if (r >= t_) {
    min_stable_forest_ = std::min(min_stable_forest_, forest);
    if (!connected) {
      if (ok_) first_bad_window_ = r - t_;
      ok_ = false;
    }
  } else {
    boot_forest_ = forest;
  }
  if (!connected && cert_ > 0) {
    cert_ = std::min(cert_, LargestConnectedSuffixFromRing(r, cap));
  }
  return ok_;
}

const TIntervalChecker::SpineRecord* TIntervalChecker::FindSpine(
    std::uint64_t id) const {
  for (const SpineRecord& rec : spines_) {
    if (rec.id == id) return &rec;
  }
  return nullptr;
}

void TIntervalChecker::EnsureSpineVerified(
    std::uint64_t id, std::span<const Edge> edges,
    const std::shared_ptr<const std::vector<Edge>>& owner,
    bool* full_verify) {
  // Shared-ownership span-lifetime contract: the span must point into the
  // owner's buffer, which the record below pins for as long as the id can
  // be referenced (ring lifetime). No defensive copy is made anywhere.
  SDN_CHECK_MSG(owner != nullptr,
                "RoundComposition id " << id
                                       << " has no shared owner (the span-"
                                          "lifetime contract requires one)");
  SDN_CHECK_MSG(edges.data() >= owner->data() &&
                    edges.data() + edges.size() <= owner->data() + owner->size(),
                "RoundComposition id " << id
                                       << " span outside its owner's buffer");
  for (const SpineRecord& rec : spines_) {
    if (rec.id != id) continue;
    SDN_CHECK_MSG(rec.data == edges.data() && rec.size == edges.size(),
                  "RoundComposition id " << id
                                         << " reused for a different span");
    return;
  }
  // New id: one union-find pass over the span, early-exiting the moment
  // the set is connected. The span is scanned in a strided interleave: the
  // sorted order leaves high-numbered vertices isolated until their own
  // block (forcing a near-full scan before the exit), while an
  // approximately uniform edge order connects a random graph after about
  // (n/2)·ln n edges — typically half the span. The whole span still fits
  // in L2, so the stride costs nothing.
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  bool connected = n_ <= 1;
  const std::size_t m = edges.size();
  constexpr std::size_t kStride = 8;
  for (std::size_t phase = 0; phase < kStride && !connected; ++phase) {
    for (std::size_t i = phase; i < m; i += kStride) {
      const Edge& e = edges[i];
      scratch_uf_.Union(e.u, e.v);
      if (scratch_uf_.num_components() == 1) {
        connected = true;
        break;
      }
    }
  }
  ++ids_first_seen_;
  // Full union verification of the composition claim on a fixed schedule
  // of first-seen ids: always the first two (catches structural breakage
  // immediately), then every 16th (bounds the amortized cost; the
  // per-round sampled probes in CheckComposition cover the rest).
  if (ids_first_seen_ <= 2 || ids_first_seen_ % 16 == 0) {
    *full_verify = true;
  }
  spines_.push_back({.id = id,
                     .data = edges.data(),
                     .size = edges.size(),
                     .connected = connected,
                     .owner = owner});
}

void TIntervalChecker::CheckComposition(const RoundComposition& comp,
                                        std::span<const Edge> round_edges,
                                        std::int64_t r, bool full) {
  const auto edges = round_edges;
  const auto e_size = static_cast<std::int64_t>(edges.size());
  SDN_CHECK_MSG(
      e_size >= static_cast<std::int64_t>(comp.core.size()) &&
          e_size >= static_cast<std::int64_t>(comp.support.size()) &&
          e_size <= static_cast<std::int64_t>(comp.core.size() +
                                              comp.support.size() +
                                              comp.fresh.size()),
      "RoundComposition size bounds broken at round " << r);
  if (full) {
    // Exact: walk E_r against the three claimed spans in lockstep. Every
    // span entry must appear in E_r and every E_r edge must be claimed.
    std::size_t ci = 0;
    std::size_t si = 0;
    std::size_t fi = 0;
    for (const Edge& e : edges) {
      const std::uint64_t ke = Key(e);
      bool matched = false;
      const auto eat = [&](std::span<const Edge> s, std::size_t& idx) {
        SDN_CHECK_MSG(idx >= s.size() || Key(s[idx]) >= ke,
                      "RoundComposition claims an edge absent from the "
                      "round at round "
                          << r);
        if (idx < s.size() && Key(s[idx]) == ke) {
          ++idx;
          matched = true;
        }
      };
      eat(comp.core, ci);
      eat(comp.support, si);
      eat(comp.fresh, fi);
      SDN_CHECK_MSG(matched, "RoundComposition misses edge ("
                                 << e.u << "," << e.v << ") at round " << r);
    }
    SDN_CHECK_MSG(ci == comp.core.size() && si == comp.support.size() &&
                      fi == comp.fresh.size(),
                  "RoundComposition claims edges beyond the round's range "
                  "at round "
                      << r);
    return;
  }
  // Sampled membership probes, deterministic in the round number: cheap
  // continuous cross-checking between the scheduled full verifications.
  std::uint64_t x = static_cast<std::uint64_t>(r) * 0x9E3779B97F4A7C15ULL;
  const auto probe = [&](std::span<const Edge> s, int k, const char* what) {
    if (s.empty()) return;
    for (int i = 0; i < k; ++i) {
      const Edge& e = s[Mix64(x) % s.size()];
      SDN_CHECK_MSG(ContainsEdge(edges, e),
                    "RoundComposition " << what << " edge (" << e.u << ","
                                        << e.v
                                        << ") absent from round " << r);
    }
  };
  probe(comp.core, 4, "core");
  probe(comp.support, 2, "support");
  probe(comp.fresh, 2, "fresh");
}

std::uint64_t TIntervalChecker::FindWitness(std::int64_t r,
                                            std::int64_t cap) const {
  // A witness must be pinned in the window's oldest round, so the (at most
  // two) candidate ids come from there; each is checked against the newer
  // rounds' id pairs.
  const auto& oldest = ring_ids_[static_cast<std::size_t>((r - cap) % t_)];
  for (const std::uint64_t id : oldest) {
    if (id == kNoId) continue;
    bool everywhere = true;
    for (std::int64_t s = r - cap + 2; s <= r; ++s) {
      const auto& ids = ring_ids_[static_cast<std::size_t>((s - 1) % t_)];
      if (ids[0] != id && ids[1] != id) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) {
      const SpineRecord* rec = FindSpine(id);
      if (rec != nullptr && rec->connected) return id;
    }
  }
  return kNoId;
}

void TIntervalChecker::ReconstructRound(std::int64_t s, std::vector<Edge>& out) {
  const auto slot = static_cast<std::size_t>((s - 1) % t_);
  const auto& ids = ring_ids_[slot];
  const SpineRecord* core = FindSpine(ids[0]);
  SDN_CHECK_MSG(core != nullptr,
                "T-interval checker: spine id " << ids[0]
                    << " evicted while round " << s << " is in the ring");
  const std::vector<Edge>& fresh = ring_fresh_[slot];
  if (ids[1] != kNoId) {
    const SpineRecord* support = FindSpine(ids[1]);
    SDN_CHECK_MSG(support != nullptr,
                  "T-interval checker: spine id " << ids[1]
                      << " evicted while round " << s << " is in the ring");
    UnionSorted(core->edges(), support->edges(), recon_base_);
    UnionSorted(recon_base_, fresh, out);
  } else {
    UnionSorted(core->edges(), fresh, out);
  }
}

void TIntervalChecker::ExactWindow(std::int64_t r, std::int64_t cap,
                                   bool* connected, std::int64_t* forest) {
  ReconstructRound(r, isect_a_);
  for (std::int64_t s = r - 1; s >= r - cap + 1; --s) {
    ReconstructRound(s, recon_);
    IntersectSorted(isect_a_, recon_, isect_b_);
    std::swap(isect_a_, isect_b_);
  }
  scratch_uf_.Reset(static_cast<std::size_t>(n_));
  for (const Edge& e : isect_a_) scratch_uf_.Union(e.u, e.v);
  *connected = scratch_uf_.num_components() == 1;
  *forest = static_cast<std::int64_t>(n_) -
            static_cast<std::int64_t>(scratch_uf_.num_components());
}

std::int64_t TIntervalChecker::LargestConnectedSuffixFromRing(
    std::int64_t r, std::int64_t cap) {
  // Window connectivity is downward-closed in the window length (longer
  // windows intersect to subsets), so grow the suffix until it breaks.
  std::int64_t best = 0;
  ReconstructRound(r, isect_a_);
  for (std::int64_t len = 1; len <= cap; ++len) {
    if (len > 1) {
      ReconstructRound(r - len + 1, recon_);
      IntersectSorted(isect_a_, recon_, isect_b_);
      std::swap(isect_a_, isect_b_);
    }
    scratch_uf_.Reset(static_cast<std::size_t>(n_));
    bool connected = n_ <= 1;
    for (const Edge& e : isect_a_) {
      scratch_uf_.Union(e.u, e.v);
      if (scratch_uf_.num_components() == 1) {
        connected = true;
        break;
      }
    }
    if (!connected) break;
    best = len;
  }
  return best;
}

std::int64_t TIntervalChecker::ApproxBytes() const {
  const auto vec = [](const auto& v) {
    using T = typename std::decay_t<decltype(v)>::value_type;
    return static_cast<std::int64_t>(v.capacity() * sizeof(T));
  };
  // Capacities are pure functions of the pushed stream, so the total is as
  // deterministic as the rest of the checker's state.
  std::int64_t total = vec(run_keys_) + vec(run_born_) + vec(spare_keys_) +
                       vec(spare_born_);
  for (const auto& bucket : aging_) total += vec(bucket);
  total += forest_.ApproxBytes() + scratch_uf_.ApproxBytes();
  for (const auto& bucket : sweep_buckets_) total += vec(bucket);
  total += vec(prev_edges_);
  total += vec(scratch_delta_.added) + vec(scratch_delta_.removed);
  for (const auto& fresh : ring_fresh_) total += vec(fresh);
  total += vec(ring_ids_);
  total += static_cast<std::int64_t>(spines_.capacity() * sizeof(SpineRecord));
  total += vec(isect_a_) + vec(isect_b_) + vec(recon_) + vec(recon_base_);
  return total;
}

std::int64_t TIntervalChecker::certified_T() const { return cert_; }

std::int64_t TIntervalChecker::min_stable_forest() const {
  return rounds_seen_ < t_ ? boot_forest_ : min_stable_forest_;
}

}  // namespace sdn::graph
