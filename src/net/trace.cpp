#include "net/trace.hpp"

#include <sstream>

#include "util/check.hpp"

namespace sdn::net {

void SaveTrace(const std::string& path, std::span<const graph::Graph> rounds,
               int interval, TraceWriteOptions options) {
  SDN_CHECK(!rounds.empty());
  SDN_CHECK(interval >= 1);
  const graph::NodeId n = rounds.front().num_nodes();
  for (const graph::Graph& g : rounds) SDN_CHECK(g.num_nodes() == n);
  TraceRecorder recorder(path, n, interval, options.keyframe_every);
  for (const graph::Graph& g : rounds) recorder.Push(g);
  recorder.Close();
}

namespace {

/// Next non-comment, non-blank line.
bool NextLine(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

std::vector<graph::Edge> ReadEdgeLines(std::istream& in, std::string& line,
                                       std::int64_t count, std::int64_t round) {
  std::vector<graph::Edge> edges;
  edges.reserve(static_cast<std::size_t>(count));
  for (std::int64_t e = 0; e < count; ++e) {
    SDN_CHECK_MSG(NextLine(in, line), "trace truncated in round " << round);
    std::istringstream edge_line(line);
    graph::NodeId u = 0;
    graph::NodeId v = 0;
    edge_line >> u >> v;
    SDN_CHECK_MSG(!edge_line.fail(), "bad edge line: " << line);
    edges.emplace_back(u, v);
  }
  return edges;
}

Trace LoadTraceV1(std::istream& in, const std::string& path) {
  graph::NodeId n = 0;
  Trace trace;
  std::int64_t round_count = 0;
  std::string line;
  {
    SDN_CHECK_MSG(NextLine(in, line), "missing trace size line");
    std::istringstream sizes(line);
    std::string nodes_kw;
    std::string interval_kw;
    std::string rounds_kw;
    sizes >> nodes_kw >> n >> interval_kw >> trace.interval >> rounds_kw >>
        round_count;
    SDN_CHECK_MSG(nodes_kw == "nodes" && interval_kw == "interval" &&
                      rounds_kw == "rounds" && !sizes.fail(),
                  "bad trace size line: " << line);
    SDN_CHECK(n >= 1 && trace.interval >= 1 && round_count >= 1);
  }

  for (std::int64_t r = 1; r <= round_count; ++r) {
    SDN_CHECK_MSG(NextLine(in, line), "trace truncated at round " << r);
    std::istringstream round_header(line);
    std::string round_kw;
    std::string edges_kw;
    std::int64_t round_id = 0;
    std::int64_t edge_count = 0;
    round_header >> round_kw >> round_id >> edges_kw >> edge_count;
    SDN_CHECK_MSG(round_kw == "round" && edges_kw == "edges" &&
                      !round_header.fail() && round_id == r && edge_count >= 0,
                  "bad round header: " << line);
    trace.rounds.emplace_back(n, ReadEdgeLines(in, line, edge_count, r));
  }
  SDN_CHECK_MSG(!trace.rounds.empty(), "empty trace " << path);
  return trace;
}

Trace LoadTraceV2(std::istream& in, const std::string& path) {
  graph::NodeId n = 0;
  Trace trace;
  std::int64_t keyframe_every = 0;
  std::string line;
  {
    SDN_CHECK_MSG(NextLine(in, line), "missing trace size line");
    std::istringstream sizes(line);
    std::string nodes_kw;
    std::string interval_kw;
    std::string keyframe_kw;
    sizes >> nodes_kw >> n >> interval_kw >> trace.interval >> keyframe_kw >>
        keyframe_every;
    SDN_CHECK_MSG(nodes_kw == "nodes" && interval_kw == "interval" &&
                      keyframe_kw == "keyframe" && !sizes.fail(),
                  "bad trace size line: " << line);
    SDN_CHECK(n >= 1 && trace.interval >= 1 && keyframe_every >= 1);
  }

  // Rounds are reconstructed through the same incremental machinery the
  // engine runs on — DynGraph::Apply validates every delta against the
  // reconstructed state, so a corrupt delta line fails loudly instead of
  // silently desynchronizing the replay.
  graph::DynGraph dyn(n);
  graph::TopologyDelta delta;
  std::int64_t r = 0;
  while (NextLine(in, line)) {
    ++r;
    std::istringstream round_header(line);
    std::string round_kw;
    std::string kind_kw;
    std::int64_t round_id = 0;
    round_header >> round_kw >> round_id >> kind_kw;
    SDN_CHECK_MSG(round_kw == "round" && !round_header.fail() && round_id == r,
                  "bad round header: " << line);
    const bool keyframe_due = (r - 1) % keyframe_every == 0;
    if (kind_kw == "full") {
      SDN_CHECK_MSG(keyframe_due, "unexpected keyframe at round " << r);
      std::int64_t edge_count = 0;
      round_header >> edge_count;
      SDN_CHECK_MSG(!round_header.fail() && edge_count >= 0,
                    "bad round header: " << line);
      dyn.Reset(graph::Graph(n, ReadEdgeLines(in, line, edge_count, r)));
    } else if (kind_kw == "delta") {
      SDN_CHECK_MSG(!keyframe_due, "missing keyframe at round " << r);
      std::int64_t added = 0;
      std::int64_t removed = 0;
      round_header >> added >> removed;
      SDN_CHECK_MSG(!round_header.fail() && added >= 0 && removed >= 0,
                    "bad round header: " << line);
      delta.clear();
      for (std::int64_t e = 0; e < added + removed; ++e) {
        SDN_CHECK_MSG(NextLine(in, line), "trace truncated in round " << r);
        const std::size_t first = line.find_first_not_of(" \t\r");
        const char sign = line[first];
        SDN_CHECK_MSG(sign == '+' || sign == '-', "bad delta line: " << line);
        SDN_CHECK_MSG(e < added ? sign == '+' : sign == '-',
                      "delta lines out of order: " << line);
        std::istringstream edge_line(line.substr(first + 1));
        graph::NodeId u = 0;
        graph::NodeId v = 0;
        edge_line >> u >> v;
        SDN_CHECK_MSG(!edge_line.fail(), "bad delta line: " << line);
        (sign == '+' ? delta.added : delta.removed).emplace_back(u, v);
      }
      dyn.Apply(delta);
    } else {
      SDN_CHECK_MSG(false, "bad round header: " << line);
    }
    trace.rounds.push_back(dyn.View());
  }
  SDN_CHECK_MSG(!trace.rounds.empty(), "empty trace " << path);
  return trace;
}

}  // namespace

Trace LoadTrace(const std::string& path) {
  std::ifstream in(path);
  SDN_CHECK_MSG(in.good(), "cannot open " << path);

  std::string line;
  SDN_CHECK_MSG(NextLine(in, line), "empty trace " << path);
  int version = 0;
  {
    std::istringstream header(line);
    std::string magic;
    header >> magic >> version;
    SDN_CHECK_MSG(magic == "sdn-trace" && (version == 1 || version == 2),
                  "bad trace header in " << path << ": " << line);
  }
  return version == 1 ? LoadTraceV1(in, path) : LoadTraceV2(in, path);
}

TraceStreamReader::TraceStreamReader(const std::string& path)
    : in_(path), path_(path) {
  SDN_CHECK_MSG(in_.good(), "cannot open " << path);
  SDN_CHECK_MSG(NextLine(in_, line_), "empty trace " << path);
  int version = 0;
  {
    std::istringstream header(line_);
    std::string magic;
    header >> magic >> version;
    SDN_CHECK_MSG(magic == "sdn-trace" && (version == 1 || version == 2),
                  "bad trace header in " << path << ": " << line_);
    SDN_CHECK_MSG(version == 2,
                  "streaming reader requires a v2 (delta) trace: " << path);
  }
  SDN_CHECK_MSG(NextLine(in_, line_), "missing trace size line in " << path);
  std::istringstream sizes(line_);
  std::string nodes_kw;
  std::string interval_kw;
  std::string keyframe_kw;
  sizes >> nodes_kw >> n_ >> interval_kw >> interval_ >> keyframe_kw >>
      keyframe_every_;
  SDN_CHECK_MSG(nodes_kw == "nodes" && interval_kw == "interval" &&
                    keyframe_kw == "keyframe" && !sizes.fail(),
                "bad trace size line: " << line_);
  SDN_CHECK(n_ >= 1 && interval_ >= 1 && keyframe_every_ >= 1);
}

bool TraceStreamReader::Next(Round& out) {
  if (!NextLine(in_, line_)) return false;
  const std::int64_t r = ++rounds_;
  std::istringstream round_header(line_);
  std::string round_kw;
  std::string kind_kw;
  std::int64_t round_id = 0;
  round_header >> round_kw >> round_id >> kind_kw;
  SDN_CHECK_MSG(round_kw == "round" && !round_header.fail() && round_id == r,
                "bad round header: " << line_);
  const bool keyframe_due = (r - 1) % keyframe_every_ == 0;
  out.round = r;
  out.full.clear();
  out.delta.clear();
  if (kind_kw == "full") {
    SDN_CHECK_MSG(keyframe_due, "unexpected keyframe at round " << r);
    std::int64_t edge_count = 0;
    round_header >> edge_count;
    SDN_CHECK_MSG(!round_header.fail() && edge_count >= 0,
                  "bad round header: " << line_);
    out.keyframe = true;
    out.full.reserve(static_cast<std::size_t>(edge_count));
    for (std::int64_t e = 0; e < edge_count; ++e) {
      SDN_CHECK_MSG(NextLine(in_, line_), "trace truncated in round " << r);
      std::istringstream edge_line(line_);
      graph::NodeId u = 0;
      graph::NodeId v = 0;
      edge_line >> u >> v;
      SDN_CHECK_MSG(!edge_line.fail(), "bad edge line: " << line_);
      out.full.emplace_back(u, v);
    }
  } else if (kind_kw == "delta") {
    SDN_CHECK_MSG(!keyframe_due, "missing keyframe at round " << r);
    std::int64_t added = 0;
    std::int64_t removed = 0;
    round_header >> added >> removed;
    SDN_CHECK_MSG(!round_header.fail() && added >= 0 && removed >= 0,
                  "bad round header: " << line_);
    out.keyframe = false;
    for (std::int64_t e = 0; e < added + removed; ++e) {
      SDN_CHECK_MSG(NextLine(in_, line_), "trace truncated in round " << r);
      const std::size_t first = line_.find_first_not_of(" \t\r");
      const char sign = line_[first];
      SDN_CHECK_MSG(sign == '+' || sign == '-', "bad delta line: " << line_);
      SDN_CHECK_MSG(e < added ? sign == '+' : sign == '-',
                    "delta lines out of order: " << line_);
      std::istringstream edge_line(line_.substr(first + 1));
      graph::NodeId u = 0;
      graph::NodeId v = 0;
      edge_line >> u >> v;
      SDN_CHECK_MSG(!edge_line.fail(), "bad delta line: " << line_);
      (sign == '+' ? out.delta.added : out.delta.removed).emplace_back(u, v);
    }
  } else {
    SDN_CHECK_MSG(false, "bad round header: " << line_);
  }
  return true;
}

TraceRecorder::TraceRecorder(const std::string& path, graph::NodeId n,
                             int interval, std::int64_t keyframe_every)
    : out_(path), path_(path), n_(n), keyframe_every_(keyframe_every) {
  SDN_CHECK(n >= 1);
  SDN_CHECK(interval >= 1);
  SDN_CHECK(keyframe_every >= 1);
  SDN_CHECK_MSG(out_.good(), "cannot open " << path << " for writing");
  out_ << "sdn-trace 2\n";
  out_ << "nodes " << n << " interval " << interval << " keyframe "
       << keyframe_every << "\n";
}

TraceRecorder::~TraceRecorder() {
  if (out_.is_open()) out_.close();
}

void TraceRecorder::Push(const graph::Graph& g) {
  graph::DiffSorted(prev_edges_, g.Edges(), scratch_);
  Push(g, scratch_);
}

void TraceRecorder::Push(const graph::Graph& g,
                         const graph::TopologyDelta& delta) {
  SDN_CHECK_MSG(out_.is_open(), "TraceRecorder already closed: " << path_);
  SDN_CHECK_MSG(g.num_nodes() == n_, "trace round has " << g.num_nodes()
                                                        << " nodes, expected "
                                                        << n_);
  const std::int64_t r = ++rounds_;
  if ((r - 1) % keyframe_every_ == 0) {
    const auto edges = g.Edges();
    out_ << "round " << r << " full " << edges.size() << "\n";
    for (const graph::Edge& e : edges) {
      out_ << e.u << " " << e.v << "\n";
    }
  } else {
    out_ << "round " << r << " delta " << delta.added.size() << " "
         << delta.removed.size() << "\n";
    for (const graph::Edge& e : delta.added) {
      out_ << "+" << e.u << " " << e.v << "\n";
    }
    for (const graph::Edge& e : delta.removed) {
      out_ << "-" << e.u << " " << e.v << "\n";
    }
  }
  prev_edges_.assign(g.Edges().begin(), g.Edges().end());
  SDN_CHECK_MSG(out_.good(), "write failed for " << path_);
}

void TraceRecorder::Close() {
  if (!out_.is_open()) return;
  out_.close();
  SDN_CHECK_MSG(!out_.fail(), "close failed for " << path_);
}

}  // namespace sdn::net
