#include "obs/manifest.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "core/version.hpp"

namespace sdn::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string Strip(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return Strip(line);
}

/// Quotes `s` for a POSIX shell command line.
std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// `git -C <dir> rev-parse HEAD` via popen, cached per directory: the
/// subprocess costs milliseconds and every manifest in a run wants the same
/// answer. Only this fallback is cached — SDN_GIT_SHA and the .git walk
/// stay freshly evaluated so tests can pin the override precedence.
std::string GitShaFromSubprocess(const std::string& dir) {
  static std::mutex mu;
  static std::map<std::string, std::string> cache;
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = cache.find(dir);
  if (it != cache.end()) return it->second;
  std::string out;
  const std::string cmd =
      "git -C " + ShellQuote(dir) + " rev-parse HEAD 2>/dev/null";
  if (FILE* pipe = popen(cmd.c_str(), "r"); pipe != nullptr) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
    if (pclose(pipe) != 0) out.clear();
  }
  return cache[dir] = Strip(out);
}

}  // namespace

std::string ResolveGitSha(const std::string& dir) {
  if (const char* env = std::getenv("SDN_GIT_SHA"); env != nullptr && *env) {
    return env;
  }
  std::error_code ec;
  std::filesystem::path at = std::filesystem::absolute(dir, ec);
  if (ec) at = dir;
  at = at.lexically_normal();
  if (!at.has_filename()) at = at.parent_path();  // "a/b/" -> "a/b"
  for (int depth = 0; depth < 6; ++depth) {
    const std::filesystem::path git = at / ".git";
    const std::string head = ReadFirstLine((git / "HEAD").string());
    if (!head.empty()) {
      if (head.rfind("ref: ", 0) == 0) {
        const std::string sha = ReadFirstLine((git / head.substr(5)).string());
        if (!sha.empty()) return sha;
        break;  // packed refs or similar: let the subprocess resolve it
      }
      return head;  // detached HEAD: the SHA itself
    }
    if (!at.has_parent_path() || at.parent_path() == at) break;
    at = at.parent_path();
  }
  const std::string sha = GitShaFromSubprocess(dir);
  return sha.empty() ? "unknown" : sha;
}

namespace {

std::string Hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

std::string UtcNow() {
  // Test hook: a non-empty SDN_FAKE_TIME is stamped verbatim, so manifest
  // round-trip tests assert on exact bytes instead of racing the wall
  // clock across a second boundary.
  if (const char* fake = std::getenv("SDN_FAKE_TIME");
      fake != nullptr && *fake != '\0') {
    return fake;
  }
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

RunManifest RunManifest::Collect() {
  RunManifest m;
  m.Set("sdn_version", std::to_string(kVersionMajor) + "." +
                           std::to_string(kVersionMinor) + "." +
                           std::to_string(kVersionPatch));
  m.Set("git_sha", ResolveGitSha("."));
#if defined(__VERSION__)
  m.Set("compiler", __VERSION__);
#else
  m.Set("compiler", "unknown");
#endif
#if defined(SDN_BUILD_TYPE)
  // Empty when CMake was configured without CMAKE_BUILD_TYPE.
  m.Set("build_type", *SDN_BUILD_TYPE != '\0' ? SDN_BUILD_TYPE : "unspecified");
#else
  m.Set("build_type", "unknown");
#endif
#if defined(__OPTIMIZE__)
  m.Set("optimized", "1");
#else
  m.Set("optimized", "0");
#endif
#if defined(NDEBUG)
  m.Set("assertions", "off");
#else
  m.Set("assertions", "on");
#endif
  m.Set("hostname", Hostname());
  m.Set("utc_time", UtcNow());
  return m;
}

void RunManifest::Set(const std::string& key, const std::string& value) {
  for (auto& [k, v] : items) {
    if (k == key) {
      v = value;
      return;
    }
  }
  items.emplace_back(key, value);
}

void RunManifest::Set(const std::string& key, long long value) {
  Set(key, std::to_string(value));
}

const std::string* RunManifest::Find(const std::string& key) const {
  for (const auto& [k, v] : items) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string RunManifest::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : items) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += JsonEscape(k);
    out += "\":\"";
    out += JsonEscape(v);
    out += '"';
  }
  out += "}";
  return out;
}

std::vector<std::string> RunManifest::CommentLines() const {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const auto& [k, v] : items) {
    out.push_back("# " + k + "=" + v);
  }
  return out;
}

bool RunManifest::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << ToJson() << "\n";
  return static_cast<bool>(os);
}

}  // namespace sdn::obs
