#include "net/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "adversary/factory.hpp"
#include "adversary/replay.hpp"
#include "algo/flood_max.hpp"
#include "graph/generators.hpp"
#include "graph/tinterval.hpp"
#include "net/engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::net {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("/tmp/sdn_test_" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<graph::Graph> SampleSequence(graph::NodeId n, int rounds,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::Graph> seq;
  for (int r = 0; r < rounds; ++r) {
    seq.push_back(graph::ConnectedGnp(n, 0.1, rng));
  }
  return seq;
}

TEST(Trace, SaveLoadRoundTrip) {
  const TempFile file("roundtrip.trace");
  const auto seq = SampleSequence(20, 12, 1);
  SaveTrace(file.path(), seq, 3);
  const Trace trace = LoadTrace(file.path());
  EXPECT_EQ(trace.interval, 3);
  EXPECT_EQ(trace.num_nodes(), 20);
  ASSERT_EQ(trace.rounds.size(), seq.size());
  for (std::size_t r = 0; r < seq.size(); ++r) {
    EXPECT_EQ(trace.rounds[r], seq[r]) << "round " << r;
  }
}

TEST(Trace, RoundTripPreservesTIntervalValidity) {
  const TempFile file("validity.trace");
  adversary::AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = 16;
  config.T = 3;
  const auto adv = adversary::MakeAdversary(config);
  class View final : public AdversaryView {
   public:
    [[nodiscard]] std::int64_t round() const override { return 1; }
    [[nodiscard]] double PublicState(graph::NodeId) const override {
      return 0;
    }
    [[nodiscard]] graph::NodeId num_nodes() const override { return 16; }
  } view;
  std::vector<graph::Graph> seq;
  for (std::int64_t r = 1; r <= 20; ++r) {
    seq.push_back(adv->TopologyFor(r, view));
  }
  SaveTrace(file.path(), seq, 3);
  const Trace trace = LoadTrace(file.path());
  EXPECT_TRUE(graph::ValidateTInterval(trace.rounds, trace.interval,
                                       graph::ValidateMode::kEarlyExit)
                  .ok);
}

TEST(Trace, LoadedTraceDrivesReplayAdversary) {
  const TempFile file("replay.trace");
  const auto seq = SampleSequence(10, 5, 7);
  SaveTrace(file.path(), seq, 2);
  Trace trace = LoadTrace(file.path());
  adversary::ReplayAdversary replay(std::move(trace.rounds), trace.interval);
  EXPECT_EQ(replay.num_nodes(), 10);
  EXPECT_EQ(replay.recorded_rounds(), 5);
}

TEST(Trace, CommentsAndBlankLinesIgnored) {
  const TempFile file("comments.trace");
  {
    std::ofstream out(file.path());
    out << "# a comment\n\nsdn-trace 1\n# another\nnodes 3 interval 1 rounds 1\n"
        << "round 1 edges 2\n0 1\n\n1 2\n";
  }
  const Trace trace = LoadTrace(file.path());
  EXPECT_EQ(trace.num_nodes(), 3);
  EXPECT_EQ(trace.rounds.front().num_edges(), 2);
}

TEST(Trace, EmptyGraphRoundsAllowed) {
  const TempFile file("empty.trace");
  std::vector<graph::Graph> seq = {graph::Graph(4), graph::Path(4)};
  SaveTrace(file.path(), seq, 1);
  const Trace trace = LoadTrace(file.path());
  EXPECT_EQ(trace.rounds[0].num_edges(), 0);
  EXPECT_EQ(trace.rounds[1].num_edges(), 3);
}

TEST(Trace, MalformedHeaderRejected) {
  const TempFile file("bad_header.trace");
  {
    std::ofstream out(file.path());
    out << "not-a-trace 1\n";
  }
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
}

TEST(Trace, TruncatedFileRejected) {
  const TempFile file("truncated.trace");
  {
    std::ofstream out(file.path());
    out << "sdn-trace 1\nnodes 4 interval 1 rounds 2\nround 1 edges 1\n0 1\n";
    // round 2 missing
  }
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
}

TEST(Trace, WrongRoundNumberingRejected) {
  const TempFile file("numbering.trace");
  {
    std::ofstream out(file.path());
    out << "sdn-trace 1\nnodes 4 interval 1 rounds 1\nround 9 edges 0\n";
  }
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
}

TEST(Trace, MissingFileRejected) {
  EXPECT_THROW(LoadTrace("/tmp/definitely_not_here.trace"), util::CheckError);
}

TEST(Trace, SaveRejectsEmptyOrRagged) {
  const TempFile file("invalid_save.trace");
  const std::vector<graph::Graph> empty;
  EXPECT_THROW(SaveTrace(file.path(), empty, 1), util::CheckError);
  const std::vector<graph::Graph> ragged = {graph::Graph(3), graph::Graph(4)};
  EXPECT_THROW(SaveTrace(file.path(), ragged, 1), util::CheckError);
}

/// The library only writes v2; v1 is an input format for externally
/// produced traces. Fixtures are therefore built as v1 text here.
void WriteV1Fixture(const std::string& path,
                    const std::vector<graph::Graph>& rounds, int interval) {
  std::ofstream out(path);
  out << "sdn-trace 1\nnodes " << rounds.front().num_nodes() << " interval "
      << interval << " rounds " << rounds.size() << "\n";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    out << "round " << r + 1 << " edges " << rounds[r].num_edges() << "\n";
    for (const graph::Edge& e : rounds[r].Edges()) {
      out << e.u << " " << e.v << "\n";
    }
  }
}

std::vector<graph::Graph> AdversarySequence(graph::NodeId n, int T,
                                            std::int64_t rounds,
                                            std::uint64_t seed = 1) {
  adversary::AdversaryConfig config;
  config.kind = "spine-rtree";
  config.n = n;
  config.T = T;
  config.seed = seed;
  const auto adv = adversary::MakeAdversary(config);
  class View final : public AdversaryView {
   public:
    explicit View(graph::NodeId n) : n_(n) {}
    [[nodiscard]] std::int64_t round() const override { return 1; }
    [[nodiscard]] double PublicState(graph::NodeId) const override {
      return 0;
    }
    [[nodiscard]] graph::NodeId num_nodes() const override { return n_; }

   private:
    graph::NodeId n_;
  } view(n);
  std::vector<graph::Graph> seq;
  for (std::int64_t r = 1; r <= rounds; ++r) {
    seq.push_back(adv->TopologyFor(r, view));
  }
  return seq;
}

TEST(TraceV2, RoundTripsIdenticallyToV1AndIsSmaller) {
  const TempFile v1("v1.trace");
  const TempFile v2("v2.trace");
  const auto seq = AdversarySequence(64, 3, 50);
  WriteV1Fixture(v1.path(), seq, 3);
  SaveTrace(v2.path(), seq, 3, {.keyframe_every = 16});
  const Trace a = LoadTrace(v1.path());
  const Trace b = LoadTrace(v2.path());
  EXPECT_EQ(a.interval, b.interval);
  ASSERT_EQ(a.rounds.size(), seq.size());
  ASSERT_EQ(b.rounds.size(), seq.size());
  for (std::size_t r = 0; r < seq.size(); ++r) {
    EXPECT_EQ(a.rounds[r], seq[r]) << "v1 round " << r;
    EXPECT_EQ(b.rounds[r], seq[r]) << "v2 round " << r;
  }
  // Consecutive T-interval rounds share most edges, so the delta encoding
  // must come out strictly smaller than the full per-round lists.
  EXPECT_LT(std::filesystem::file_size(v2.path()),
            std::filesystem::file_size(v1.path()));
}

TEST(TraceV2, KeyframeRoundsRestartExactly) {
  // keyframe_every=4 over 11 rounds: rounds 1, 5, 9 are full keyframes and
  // the rounds in between are reconstructed from deltas alone.
  const TempFile file("keyframes.trace");
  const auto seq = AdversarySequence(24, 2, 11, 9);
  SaveTrace(file.path(), seq, 2, {.keyframe_every = 4});
  {
    std::ifstream in(file.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("round 1 full"), std::string::npos);
    EXPECT_NE(text.find("round 5 full"), std::string::npos);
    EXPECT_NE(text.find("round 9 full"), std::string::npos);
    EXPECT_NE(text.find("round 2 delta"), std::string::npos);
    EXPECT_EQ(text.find("round 5 delta"), std::string::npos);
  }
  const Trace trace = LoadTrace(file.path());
  ASSERT_EQ(trace.rounds.size(), seq.size());
  for (std::size_t r = 0; r < seq.size(); ++r) {
    EXPECT_EQ(trace.rounds[r], seq[r]) << "round " << r;
  }
}

TEST(TraceV2, RecorderStreamsSameFileAsSaveTrace) {
  const TempFile streamed("streamed.trace");
  const TempFile batch("batch.trace");
  const auto seq = AdversarySequence(16, 2, 9);
  {
    TraceRecorder recorder(streamed.path(), 16, 2, /*keyframe_every=*/4);
    for (const graph::Graph& g : seq) recorder.Push(g);
    EXPECT_EQ(recorder.rounds_written(), 9);
    recorder.Close();
  }
  SaveTrace(batch.path(), seq, 2, {.keyframe_every = 4});
  std::ifstream a(streamed.path());
  std::ifstream b(batch.path());
  const std::string sa((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);
}

TEST(TraceV2, MalformedDeltaRejected) {
  const TempFile file("bad_delta.trace");
  {
    // Round 2 removes an edge round 1 does not have: the loader's DynGraph
    // replay must reject it instead of desynchronizing.
    std::ofstream out(file.path());
    out << "sdn-trace 2\nnodes 4 interval 1 keyframe 64\n"
        << "round 1 full 1\n0 1\n"
        << "round 2 delta 0 1\n-2 3\n";
  }
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
}

TEST(TraceV2, TruncatedMidRoundRejected) {
  const TempFile file("truncated_v2.trace");
  {
    std::ofstream out(file.path());
    out << "sdn-trace 2\nnodes 4 interval 1 keyframe 64\n"
        << "round 1 full 2\n0 1\n";  // second edge missing
  }
  EXPECT_THROW(LoadTrace(file.path()), util::CheckError);
}

net::RunStats ReplayRunStats(std::vector<graph::Graph> rounds, int T) {
  const graph::NodeId n = rounds.front().num_nodes();
  adversary::ReplayAdversary replay(std::move(rounds), T);
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < n; ++u) nodes.emplace_back(u, n, u);
  EngineOptions opts;
  opts.threads = 1;
  Engine<algo::FloodMaxKnownN> engine(std::move(nodes), replay, opts);
  return engine.Run();
}

TEST(TraceV2, EitherVersionReplaysToIdenticalRunStats) {
  const TempFile v1("replay_v1.trace");
  const TempFile v2("replay_v2.trace");
  const auto seq = AdversarySequence(48, 2, 80);
  WriteV1Fixture(v1.path(), seq, 2);
  SaveTrace(v2.path(), seq, 2, {.keyframe_every = 8});
  const RunStats a = ReplayRunStats(LoadTrace(v1.path()).rounds, 2);
  const RunStats b = ReplayRunStats(LoadTrace(v2.path()).rounds, 2);
  EXPECT_GT(a.rounds, 0);
  EXPECT_TRUE(a.all_decided);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.decide_round, b.decide_round);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.total_message_bits, b.total_message_bits);
  EXPECT_EQ(a.edges_processed, b.edges_processed);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.tinterval_ok, b.tinterval_ok);
}

TEST(TraceV2, EngineRecordTraceMatchesEveryStepTopology) {
  const TempFile file("engine_record.trace");
  const graph::NodeId n = 32;
  adversary::AdversaryConfig config;
  config.kind = "spine-gnp";
  config.n = n;
  config.T = 2;
  const auto adv = adversary::MakeAdversary(config);
  std::vector<algo::FloodMaxKnownN> nodes;
  for (graph::NodeId u = 0; u < n; ++u) nodes.emplace_back(u, n, u);
  TraceRecorder recorder(file.path(), n, 2, /*keyframe_every=*/8);
  EngineOptions opts;
  opts.threads = 1;
  opts.record_trace = &recorder;
  Engine<algo::FloodMaxKnownN> engine(std::move(nodes), *adv, opts);
  std::vector<graph::Graph> recorded;
  while (engine.Step()) recorded.push_back(engine.last_topology());
  const RunStats stats = engine.stats();
  recorder.Close();
  EXPECT_EQ(recorder.rounds_written(), stats.rounds);
  const Trace trace = LoadTrace(file.path());
  ASSERT_EQ(trace.rounds.size(), recorded.size());
  for (std::size_t r = 0; r < recorded.size(); ++r) {
    EXPECT_EQ(trace.rounds[r], recorded[r]) << "round " << r;
  }
}

}  // namespace
}  // namespace sdn::net
