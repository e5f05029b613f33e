// Run manifest: the provenance record stamped into every artifact.
//
// A bench table or trace file is only attributable if it records what
// produced it: the git SHA, the compiler and flags, the run configuration,
// the seed set, the host, and when. RunManifest collects those once per
// process (Collect()), lets harnesses add run-specific keys (Set), and
// serialises to JSON (BENCH_engine.json, trace `otherData`, *.manifest.json)
// or `# key=value` comment lines (results/*.csv preamble).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace sdn::obs {

/// JSON string escaping for manifest values (quotes, backslashes, control
/// characters).
std::string JsonEscape(const std::string& s);

/// The git commit of the checkout containing `dir`, as Collect() records
/// it: the SDN_GIT_SHA override, else HEAD read by walking up from `dir`
/// for .git, else `git -C <dir> rev-parse HEAD` (which also covers
/// worktrees, gitfile redirects and packed refs; cached per directory).
/// "unknown" outside a repository.
std::string ResolveGitSha(const std::string& dir);

struct RunManifest {
  /// Ordered key-value pairs; later Set() of an existing key overwrites.
  std::vector<std::pair<std::string, std::string>> items;

  /// Environment provenance: library version, git SHA (ResolveGitSha of
  /// the working directory), compiler (__VERSION__), build type and
  /// optimisation level, hostname, UTC timestamp.
  static RunManifest Collect();

  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, long long value);
  [[nodiscard]] const std::string* Find(const std::string& key) const;

  /// Flat JSON object, keys in insertion order.
  [[nodiscard]] std::string ToJson() const;
  /// One `# key=value` line per item (CSV/TSV comment preamble).
  [[nodiscard]] std::vector<std::string> CommentLines() const;
  /// False (and nothing written) if the file cannot be opened.
  bool WriteJson(const std::string& path) const;
};

}  // namespace sdn::obs
