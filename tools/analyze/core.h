// Shared data model of scholar_analyze, the repo's static analyzer (see
// tools/scholar_analyze.cc for the rule catalog).
//
// Design notes:
//  - Token-level, preprocessor-light: files are lexed once into a token
//    stream (comments feed the NOLINT/marker tables, #include lines feed
//    the include list) and every rule walks tokens with explicit
//    brace/function/scope tracking. No libclang dependency, so the
//    analyzer builds and runs even when the library itself is broken.
//  - Suppression contract: the analyzer only honors
//    `// NOLINT(rule-a,rule-b): reason` — the rule list must name the
//    firing rule and a non-empty reason must follow; a bare `// NOLINT`
//    suppresses nothing. Findings are audit points; the reason string is
//    the audit record.
//  - Every finding carries a content fingerprint (FNV-1a of its trimmed
//    source line) so the baseline survives unrelated line-number churn.

#ifndef SCHOLAR_ANALYZE_CORE_H_
#define SCHOLAR_ANALYZE_CORE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace analyze {

enum class TokKind { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Include {
  std::string path;  // without the <> or "" delimiters
  bool quoted;       // "..." vs <...>
  int line;
};

/// One `// NOLINT(rules): reason` marker. The analyzer requires both an
/// explicit rule list and a reason; `rules` is never empty here.
struct Nolint {
  std::set<std::string> rules;
  bool has_reason = false;
};

struct LexedFile {
  std::string path;        // as opened
  std::string norm_path;   // repo-relative (src/..., tools/..., tests/...)
  std::vector<Token> tokens;
  std::vector<Include> includes;
  std::map<int, Nolint> nolints;       // line -> marker
  std::set<int> init_markers;          // lines carrying `analyze:init-scope`
  std::vector<std::string> lines;      // raw source lines, 1-based at [i-1]
};

struct Finding {
  std::string rule;
  std::string file;    // normalized path
  int line = 0;
  uint64_t line_hash = 0;  // FNV-1a of the trimmed source line text
  std::string message;
  bool baseline_suppressed = false;
  // True when a reason-carrying NOLINT at the finding's line swallowed it.
  // Suppressed findings never reach stdout/SARIF/baseline, but they are
  // kept (and cached) so the stale-nolint audit can tell a suppression
  // that still suppresses something from one that went stale.
  bool nolint_suppressed = false;
};

/// FNV-1a 64-bit. Stable across runs/platforms; used for the per-file
/// content cache keys and the baseline's line fingerprints.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t seed = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
inline uint64_t Fnv1a(const std::string& s, uint64_t seed = 1469598103934665603ull) {
  return Fnv1a(s.data(), s.size(), seed);
}

/// True when `path` contains directory component sequence `needle`
/// ("src/rank/"), anchored at the start or after a '/'.
inline bool PathContains(const std::string& path, const std::string& needle) {
  size_t pos = path.find(needle);
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(needle, pos + 1);
  }
  return false;
}

inline std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Repo-relative spelling of `path`: the suffix starting at the last
/// boundary-anchored "src/", "tools/" or "tests/" component. Keeps
/// baseline entries and SARIF URIs stable whether the analyzer is invoked
/// with absolute (ctest) or relative (command line) paths.
inline std::string NormalizePath(const std::string& path) {
  size_t best = std::string::npos;
  for (const char* root : {"src/", "tools/", "tests/"}) {
    size_t pos = path.find(root);
    while (pos != std::string::npos) {
      if (pos == 0 || path[pos - 1] == '/') best = best == std::string::npos ? pos : std::max(best, pos);
      pos = path.find(root, pos + 1);
    }
  }
  return best == std::string::npos ? path : path.substr(best);
}

/// Hash of one source line with surrounding whitespace stripped — the
/// baseline fingerprint, insensitive to indentation and line renumbering.
inline uint64_t LineFingerprint(const LexedFile& f, int line) {
  if (line < 1 || line > static_cast<int>(f.lines.size())) return 0;
  const std::string& s = f.lines[line - 1];
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return Fnv1a(std::string());
  size_t e = s.find_last_not_of(" \t\r");
  return Fnv1a(s.substr(b, e - b + 1));
}

/// Lexes one C++ source file (see lexer.cc).
LexedFile Lex(const std::string& path, const std::string& text);

/// Collects findings for one file, honoring the reason-carrying NOLINT
/// contract described above.
class Reporter {
 public:
  explicit Reporter(const LexedFile& file, std::vector<Finding>* out)
      : file_(file), out_(out) {}

  void Report(int line, const std::string& rule, const std::string& message) {
    bool suppressed = false;
    auto it = file_.nolints.find(line);
    if (it != file_.nolints.end() && it->second.rules.count(rule) > 0 &&
        it->second.has_reason) {
      suppressed = true;  // the sanctioned escape hatch — recorded, not shown
    }
    out_->push_back({rule, file_.norm_path, line, LineFingerprint(file_, line),
                     message, false, suppressed});
  }

 private:
  const LexedFile& file_;
  std::vector<Finding>* out_;
};

}  // namespace analyze

#endif  // SCHOLAR_ANALYZE_CORE_H_
