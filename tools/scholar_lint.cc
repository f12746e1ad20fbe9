// scholar_lint: project-specific static checks the compiler cannot express.
//
// A self-contained token-level C++ checker (no libclang dependency) run
// over src/ and tools/ as a ctest (label: analysis). It enforces the
// project contracts that back the paper's headline claims — bit-identical
// parallel scores and race-free serving — at the source level:
//
//   mutex-guard    a class declaring a mutex member must annotate at
//                  least one member with GUARDED_BY; an unannotated mutex
//                  is invisible to -Wthread-safety.
//   float-compare  no == / != on floating-point values in src/rank/ and
//                  src/ensemble/ (the bit-identity contract makes
//                  accidental epsilon-free compares a real bug class).
//   unseeded-rng   no rand()/srand()/std::mt19937/std::random_device
//                  outside util/rng; all randomness flows through
//                  explicitly seeded scholar::Rng for reproducibility.
//   raw-stdout     no std::cout / printf-family output in src/; library
//                  code logs through util/logging so severity filtering
//                  and redirection keep working.
//   include-order  a .cc file's own header is its first #include, which
//                  proves the header is self-contained.
//   materialize-snapshot
//                  no ExtractSnapshot() calls outside the time-slicer
//                  itself; ranking code must consume zero-copy
//                  TemporalCsr/SnapshotView prefixes. Materializing costs
//                  O(V+E) per snapshot and is reserved for the oracle
//                  checks in tests/, which this pass does not scan.
//   include-layering
//                  the module DAG util -> graph -> {data, rank} ->
//                  {ensemble, eval} -> core -> stream -> serve -> cli
//                  admits no back-edges or same-layer edges; an #include
//                  may only name a strictly lower layer. Keeps the
//                  untrusted-input surface (parsers, serve) from leaking
//                  upward and the build graph acyclic.
//   unchecked-read no raw memcpy() / mutable reinterpret_cast in the
//                  files that decode untrusted bytes; every conversion
//                  goes through the bounds-checked util/byte_reader.h
//                  (whose own two low-level sites are the
//                  sanctioned NOLINT(unchecked-read) exceptions).
//   raw-intrinsics no _mm_*/_mm256_*/_mm512_* calls, __m128/__m256/__m512
//                  vector types, or *intrin.h includes outside
//                  src/rank/kernel/ — SIMD lives behind the iteration
//                  engine's dispatch seam, next to the scalar oracle that
//                  proves it bit-identical.
//   stale-nolint   a NOLINT(rule) naming one of the rules above that
//                  suppresses nothing on its line is itself a violation:
//                  dead suppressions hide future regressions at that line
//                  and rot the audit trail. Suppressions naming other
//                  tools' rules (e.g. scholar_analyze's) are not audited
//                  here — the analyzer runs the same audit itself over
//                  its parallel-pack rules (shared-mutation,
//                  dangling-capture, atomic-confinement,
//                  guard-consistency), so every suppression in the repo
//                  is policed by exactly one tool.
//
// Diagnostics are `file:line: rule: message`, exit status is nonzero when
// any violation survives. A `// NOLINT` comment suppresses every rule on
// its line; `// NOLINT(rule-a,rule-b)` suppresses just those rules. The
// marker must lead its comment — a doc sentence that merely *mentions*
// NOLINT(...) mid-prose is not a suppression.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

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

/// Per-line lint suppressions parsed out of comments. An empty rule set
/// means "suppress everything on this line".
using Suppressions = std::map<int, std::set<std::string>>;

struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Include> includes;
  Suppressions suppressions;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Records NOLINT / NOLINT(rule-a,rule-b) markers found in one comment.
/// The marker must lead the comment: only delimiter and decoration
/// characters may precede it, so prose that mentions NOLINT(...) is not
/// accidentally treated as (or audited as) a suppression.
void ScanCommentForNolint(const std::string& comment, int line,
                          Suppressions* out) {
  size_t pos = comment.find("NOLINT");
  if (pos == std::string::npos) return;
  for (size_t i = 0; i < pos; ++i) {
    char c = comment[i];
    if (c != '/' && c != '*' && c != '!' && c != '<' && c != ' ' &&
        c != '\t') {
      return;  // mid-comment mention, not a marker
    }
  }
  size_t after = pos + 6;  // strlen("NOLINT")
  std::set<std::string> rules;
  if (after < comment.size() && comment[after] == '(') {
    size_t close = comment.find(')', after);
    if (close != std::string::npos) {
      std::string list = comment.substr(after + 1, close - after - 1);
      std::string rule;
      std::istringstream ss(list);
      while (std::getline(ss, rule, ',')) {
        // Trim surrounding whitespace.
        size_t b = rule.find_first_not_of(" \t");
        size_t e = rule.find_last_not_of(" \t");
        if (b != std::string::npos) rules.insert(rule.substr(b, e - b + 1));
      }
    }
  }
  auto it = out->find(line);
  if (it == out->end()) {
    (*out)[line] = rules;
  } else if (!it->second.empty()) {
    if (rules.empty()) {
      it->second.clear();  // bare NOLINT wins: suppress all
    } else {
      it->second.insert(rules.begin(), rules.end());
    }
  }
}

/// Tokenizes one C++ source file. Comments and preprocessor directives are
/// consumed here (comments feed the NOLINT table, #include lines feed the
/// include list) so the rule passes below see only real code tokens.
LexedFile Lex(const std::string& path, const std::string& text) {
  LexedFile out;
  out.path = path;
  const size_t n = text.size();
  size_t i = 0;
  int line = 1;
  bool at_line_start = true;

  auto peek = [&](size_t k) -> char { return i + k < n ? text[i + k] : '\0'; };

  while (i < n) {
    char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      size_t end = text.find('\n', i);
      if (end == std::string::npos) end = n;
      ScanCommentForNolint(text.substr(i, end - i), line, &out.suppressions);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      const std::string body = text.substr(i, end - i);
      ScanCommentForNolint(body, line, &out.suppressions);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = end == n ? n : end + 2;
      at_line_start = false;
      continue;
    }
    // Preprocessor directive: consume to end of line (honoring \-splices);
    // record #include targets.
    if (c == '#' && at_line_start) {
      size_t j = i + 1;
      while (j < n && (text[j] == ' ' || text[j] == '\t')) ++j;
      size_t d = j;
      while (d < n && IsIdentChar(text[d])) ++d;
      const std::string directive = text.substr(j, d - j);
      if (directive == "include") {
        size_t p = d;
        while (p < n && (text[p] == ' ' || text[p] == '\t')) ++p;
        if (p < n && (text[p] == '"' || text[p] == '<')) {
          const char closer = text[p] == '"' ? '"' : '>';
          size_t close = text.find(closer, p + 1);
          if (close != std::string::npos) {
            out.includes.push_back(
                {text.substr(p + 1, close - p - 1), text[p] == '"', line});
          }
        }
      }
      // Skip the rest of the directive, including spliced lines. A
      // trailing `// ...` comment is still scanned for NOLINT so a
      // suppression works on an #include line (include-layering needs
      // that) — only the comment part, so the directive text itself can
      // never read as a marker.
      const int directive_line = line;
      size_t comment_at = std::string::npos;
      while (i < n && text[i] != '\n') {
        if (text[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '/' && peek(1) == '/' &&
            comment_at == std::string::npos) {
          comment_at = i;
        }
        ++i;
      }
      if (comment_at != std::string::npos) {
        ScanCommentForNolint(text.substr(comment_at, i - comment_at),
                             directive_line, &out.suppressions);
      }
      continue;
    }
    at_line_start = false;
    // String literal (incl. raw strings).
    if (c == '"' ||
        (c == 'R' && peek(1) == '"' &&
         (out.tokens.empty() || out.tokens.back().text != "\"" ))) {
      if (c == 'R' && peek(1) == '"') {
        // Raw string: R"delim( ... )delim"
        size_t open = text.find('(', i + 2);
        if (open == std::string::npos) {  // malformed; treat as ident 'R'
          out.tokens.push_back({TokKind::kIdent, "R", line});
          ++i;
          continue;
        }
        const std::string delim = text.substr(i + 2, open - (i + 2));
        const std::string closer = ")" + delim + "\"";
        size_t end = text.find(closer, open + 1);
        if (end == std::string::npos) end = n;
        const std::string body = text.substr(i, end - i);
        line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
        out.tokens.push_back({TokKind::kString, "<raw-string>", line});
        i = end == n ? n : end + closer.size();
        continue;
      }
      size_t j = i + 1;
      while (j < n && text[j] != '"') {
        if (text[j] == '\\') ++j;
        ++j;
      }
      out.tokens.push_back({TokKind::kString, "<string>", line});
      i = j < n ? j + 1 : n;
      continue;
    }
    // Char literal.
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && text[j] != '\'') {
        if (text[j] == '\\') ++j;
        ++j;
      }
      out.tokens.push_back({TokKind::kChar, "<char>", line});
      i = j < n ? j + 1 : n;
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(text[j])) ++j;
      out.tokens.push_back({TokKind::kIdent, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Number (pp-number: digits, idents chars, '.', exponent signs, and
    // C++14 digit separators).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      size_t j = i;
      while (j < n) {
        char d = text[j];
        if (IsIdentChar(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                    text[j - 1] == 'p' || text[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      out.tokens.push_back({TokKind::kNumber, text.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; fuse the two-char operators the rules care about.
    static const char* kTwoChar[] = {"==", "!=", "<=", ">=", "::", "->",
                                     "&&", "||", "++", "--", "+=", "-=",
                                     "*=", "/=", "<<", ">>"};
    std::string p(1, c);
    for (const char* op : kTwoChar) {
      if (c == op[0] && peek(1) == op[1]) {
        p = op;
        break;
      }
    }
    out.tokens.push_back({TokKind::kPunct, p, line});
    i += p.size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

struct Diagnostic {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

class Reporter {
 public:
  explicit Reporter(const LexedFile& file) : file_(file) {}

  void Report(int line, const std::string& rule, const std::string& message) {
    auto it = file_.suppressions.find(line);
    if (it != file_.suppressions.end() &&
        (it->second.empty() || it->second.count(rule) > 0)) {
      used_[line].insert(rule);  // the suppression earned its keep
      return;  // NOLINT'd
    }
    diagnostics_.push_back({file_.path, line, rule, message});
  }

  /// True when a diagnostic of `rule` was suppressed at `line`. Valid only
  /// after every rule pass ran — which is why stale-nolint runs last.
  bool WasSuppressed(int line, const std::string& rule) const {
    auto it = used_.find(line);
    return it != used_.end() && it->second.count(rule) > 0;
  }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

 private:
  const LexedFile& file_;
  std::vector<Diagnostic> diagnostics_;
  std::map<int, std::set<std::string>> used_;  // line -> rules suppressed
};

/// True when `path` contains directory component sequence `needle`
/// ("src/rank/"), anchored at the start or after a '/'.
bool PathContains(const std::string& path, const std::string& needle) {
  size_t pos = path.find(needle);
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(needle, pos + 1);
  }
  return false;
}

std::string Basename(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string Stem(const std::string& path) {
  std::string base = Basename(path);
  size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

// ---------------------------------------------------------------------------
// Rule: mutex-guard
// ---------------------------------------------------------------------------

/// A class or struct that declares a mutex member (std::mutex or
/// scholar::Mutex) must carry at least one GUARDED_BY / PT_GUARDED_BY
/// member annotation — otherwise the mutex protects nothing the
/// thread-safety analysis can check.
void CheckMutexGuard(const LexedFile& f, Reporter* rep) {
  struct ClassCtx {
    int depth;                    // brace depth of the class body
    std::vector<int> mutex_lines; // direct mutex member declarations
    bool has_guard = false;
  };
  const std::vector<Token>& t = f.tokens;
  std::vector<ClassCtx> stack;
  int depth = 0;
  bool next_brace_is_class = false;

  auto ident = [&](size_t i, const char* s) {
    return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == s;
  };
  auto punct = [&](size_t i, const char* s) {
    return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
  };

  for (size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") {
        ++depth;
        if (next_brace_is_class) {
          stack.push_back(ClassCtx{depth, {}, false});
          next_brace_is_class = false;
        }
      } else if (tok.text == "}") {
        if (!stack.empty() && stack.back().depth == depth) {
          const ClassCtx& ctx = stack.back();
          if (!ctx.has_guard) {
            for (int ln : ctx.mutex_lines) {
              rep->Report(ln, "mutex-guard",
                          "class declares a mutex member but annotates no "
                          "member with GUARDED_BY; state this mutex protects "
                          "must be annotated (util/thread_annotations.h)");
            }
          }
          stack.pop_back();
        }
        --depth;
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;

    // Class-body detection: `class`/`struct` ... `{` with no intervening
    // `;` (forward declaration) or `)` (keyword inside a parameter list).
    // An ALL_CAPS annotation macro's argument list — as in
    // `class CAPABILITY("mutex") Mutex {` — is skipped wholesale so its
    // closing paren does not read as a parameter list.
    if ((tok.text == "class" || tok.text == "struct") &&
        !(i > 0 && ident(i - 1, "enum"))) {
      for (size_t j = i + 1; j < t.size() && j < i + 64; ++j) {
        if (t[j].kind == TokKind::kIdent && punct(j + 1, "(") &&
            t[j].text.size() >= 2 &&
            t[j].text.find_first_not_of(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789") ==
                std::string::npos) {
          int nest = 0;
          size_t k = j + 1;
          for (; k < t.size() && k < j + 64; ++k) {
            if (punct(k, "(")) ++nest;
            else if (punct(k, ")") && --nest == 0) break;
          }
          j = k;
          continue;
        }
        if (punct(j, ";") || punct(j, ")")) break;  // fwd decl / param
        if (punct(j, "{")) {
          next_brace_is_class = true;
          break;
        }
      }
      continue;
    }

    const bool in_class = !stack.empty() && stack.back().depth == depth;
    if (!in_class) continue;

    if (tok.text == "GUARDED_BY" || tok.text == "PT_GUARDED_BY") {
      stack.back().has_guard = true;
      continue;
    }
    // `std :: mutex NAME ;` — a direct member (template args like
    // lock_guard<std::mutex> are excluded by the preceding '<').
    if (tok.text == "std" && punct(i + 1, "::") &&
        (ident(i + 2, "mutex") || ident(i + 2, "recursive_mutex") ||
         ident(i + 2, "shared_mutex")) &&
        !(i > 0 && punct(i - 1, "<")) && i + 4 < t.size() &&
        t[i + 3].kind == TokKind::kIdent && punct(i + 4, ";")) {
      stack.back().mutex_lines.push_back(tok.line);
      continue;
    }
    // `Mutex NAME ;` — the annotated scholar::Mutex.
    if (tok.text == "Mutex" && !(i > 0 && punct(i - 1, "<")) &&
        !(i > 0 && punct(i - 1, "::")) && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::kIdent && punct(i + 2, ";")) {
      stack.back().mutex_lines.push_back(tok.line);
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-compare
// ---------------------------------------------------------------------------

bool IsFloatLiteral(const std::string& s) {
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return false;  // hex (incl. hex floats — rare enough to ignore)
  }
  if (s.find('.') != std::string::npos) return true;
  return s.find('e') != std::string::npos || s.find('E') != std::string::npos;
}

/// In src/rank/ and src/ensemble/, flags == / != where either operand is a
/// floating literal or an identifier the file declares as float/double.
/// Exact comparison of scores is occasionally *intended* (deterministic
/// tie-breaks under the bit-identity contract) — those sites say so
/// with NOLINT(float-compare).
void CheckFloatCompare(const LexedFile& f, Reporter* rep) {
  if (!PathContains(f.path, "src/rank/") &&
      !PathContains(f.path, "src/ensemble/")) {
    return;
  }
  const std::vector<Token>& t = f.tokens;

  // Pass 1: identifiers declared with float/double anywhere in the file
  // (covers `double x`, `const double& x`, `std::vector<double>& xs`).
  std::set<std::string> float_idents;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "double" && t[i].text != "float")) {
      continue;
    }
    for (size_t j = i + 1; j < t.size() && j < i + 6; ++j) {
      if (t[j].kind == TokKind::kIdent) {
        if (t[j].text == "const") continue;
        float_idents.insert(t[j].text);
        break;
      }
      if (t[j].kind == TokKind::kPunct &&
          (t[j].text == ">" || t[j].text == ">>" || t[j].text == "&" ||
           t[j].text == "*")) {
        continue;
      }
      break;
    }
  }

  auto operand_is_float = [&](const Token& tok) {
    if (tok.kind == TokKind::kNumber) return IsFloatLiteral(tok.text);
    if (tok.kind == TokKind::kIdent) return float_idents.count(tok.text) > 0;
    return false;
  };

  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct ||
        (t[i].text != "==" && t[i].text != "!=")) {
      continue;
    }
    // A nullptr on either side makes this a pointer comparison, however
    // float-flavored the pointee's declaration looked (`vector<double>*`).
    if ((i > 0 && t[i - 1].text == "nullptr") ||
        (i + 1 < t.size() && t[i + 1].text == "nullptr")) {
      continue;
    }
    // Left operand: walk back over one balanced ]/) group to the base
    // identifier (handles `scores[a] ==` and `f(x) ==`).
    bool flt = false;
    if (i > 0) {
      size_t j = i - 1;
      if (t[j].kind == TokKind::kPunct &&
          (t[j].text == "]" || t[j].text == ")")) {
        const std::string open = t[j].text == "]" ? "[" : "(";
        const std::string close = t[j].text;
        int nest = 0;
        while (j > 0) {
          if (t[j].kind == TokKind::kPunct && t[j].text == close) ++nest;
          if (t[j].kind == TokKind::kPunct && t[j].text == open) {
            if (--nest == 0) break;
          }
          --j;
        }
        if (j > 0) --j;  // token before the opening bracket
      }
      flt = operand_is_float(t[j]);
    }
    // Right operand: first ident/number, skipping unary sign, parens and
    // `std ::` qualification.
    for (size_t k = i + 1; !flt && k < t.size() && k < i + 6; ++k) {
      if (t[k].kind == TokKind::kPunct &&
          (t[k].text == "(" || t[k].text == "-" || t[k].text == "+" ||
           t[k].text == "::")) {
        continue;
      }
      if (t[k].kind == TokKind::kIdent && t[k].text == "std") continue;
      if (t[k].kind == TokKind::kIdent || t[k].kind == TokKind::kNumber) {
        flt = operand_is_float(t[k]);
      }
      break;
    }
    if (flt) {
      rep->Report(t[i].line, "float-compare",
                  "floating-point " + t[i].text +
                      " comparison in the bit-identity-critical ranking "
                      "core; use an explicit tolerance, or "
                      "NOLINT(float-compare) when exact equality is the "
                      "contract");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unseeded-rng
// ---------------------------------------------------------------------------

void CheckRng(const LexedFile& f, Reporter* rep) {
  if (PathContains(f.path, "util/rng.h") ||
      PathContains(f.path, "util/rng.cc")) {
    return;  // the one sanctioned randomness implementation
  }
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool call = i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct &&
                      t[i + 1].text == "(";
    if ((s == "rand" || s == "srand") && call) {
      rep->Report(t[i].line, "unseeded-rng",
                  s + "() breaks bit-for-bit reproducibility; draw from an "
                      "explicitly seeded scholar::Rng (util/rng.h)");
    } else if (s == "mt19937" || s == "mt19937_64" || s == "random_device") {
      rep->Report(t[i].line, "unseeded-rng",
                  "std::" + s +
                      " outside util/rng; all randomness flows through "
                      "explicitly seeded scholar::Rng (util/rng.h)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-stdout
// ---------------------------------------------------------------------------

void CheckRawStdout(const LexedFile& f, Reporter* rep) {
  if (!PathContains(f.path, "src/")) return;  // tools may print
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "cout" || s == "printf" || s == "fprintf" || s == "puts" ||
        s == "fputs" || s == "putchar") {
      rep->Report(t[i].line, "raw-stdout",
                  "library code must not write to stdio directly (" + s +
                      "); log through SCHOLAR_LOG (util/logging.h) so "
                      "severity filtering keeps working");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: include-order
// ---------------------------------------------------------------------------

void CheckIncludeOrder(const LexedFile& f, Reporter* rep) {
  const std::string base = Basename(f.path);
  if (base.size() < 4 || base.substr(base.size() - 3) != ".cc") return;
  const std::string own_header = Stem(f.path) + ".h";
  for (size_t i = 0; i < f.includes.size(); ++i) {
    const Include& inc = f.includes[i];
    if (inc.quoted && Basename(inc.path) == own_header) {
      if (i != 0) {
        rep->Report(inc.line, "include-order",
                    "own header \"" + inc.path +
                        "\" must be the first #include (proves the header "
                        "is self-contained)");
      }
      return;  // only the first own-header include is checked
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: materialize-snapshot
// ---------------------------------------------------------------------------

/// Flags ExtractSnapshot() call sites outside src/graph/time_slicer.{h,cc}.
/// Each snapshot materialization copies O(V+E); every ranker takes the
/// ensemble's zero-copy TemporalCsr views, so ranking code never pays that.
/// The materialized oracle lives in tests/.
void CheckMaterializeSnapshot(const LexedFile& f, Reporter* rep) {
  if (PathContains(f.path, "src/graph/time_slicer.h") ||
      PathContains(f.path, "src/graph/time_slicer.cc")) {
    return;  // the implementation itself
  }
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "ExtractSnapshot") {
      continue;
    }
    const bool call = i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct &&
                      t[i + 1].text == "(";
    if (!call) continue;  // declaration mention, qualified name, comment-free doc
    rep->Report(t[i].line, "materialize-snapshot",
                "ExtractSnapshot() copies O(V+E) per snapshot; rank through "
                "zero-copy TemporalCsr::MakeView() instead");
  }
}

// ---------------------------------------------------------------------------
// Rule: include-layering
// ---------------------------------------------------------------------------

/// The module DAG, bottom (0) to top. An include is legal only when it
/// points strictly *down* the layering; same-module includes are free.
/// rank and data share a layer (both sit on graph, neither may see the
/// other), as do ensemble and eval. stream sits between core and serve:
/// the ingestion pipeline may drive any ranking kernel (graph/rank/
/// ensemble/core), but publication goes through an injected callback —
/// stream must never name serve, while serve and cli may consume stream.
int ModuleLayer(const std::string& module) {
  static const std::map<std::string, int> kLayers = {
      {"util", 0}, {"graph", 1},  {"data", 2},   {"rank", 2},
      {"ensemble", 3}, {"eval", 3}, {"core", 4}, {"stream", 5},
      {"serve", 6}, {"cli", 7}};
  auto it = kLayers.find(module);
  return it == kLayers.end() ? -1 : it->second;
}

/// Module a file belongs to: the path component after the last
/// boundary-anchored "src/" ("tools/../src/rank/twpr.cc" -> "rank").
/// Empty when the file is not under src/ (tools, tests, benches are
/// deliberately unconstrained — they may include anything).
std::string FileModule(const std::string& path) {
  size_t best = std::string::npos;
  size_t pos = path.find("src/");
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') best = pos;
    pos = path.find("src/", pos + 1);
  }
  if (best == std::string::npos) return "";
  const size_t start = best + 4;  // strlen("src/")
  const size_t slash = path.find('/', start);
  if (slash == std::string::npos) return "";  // file directly under src/
  return path.substr(start, slash - start);
}

/// Enforces the module DAG util -> graph -> {data, rank} -> {ensemble,
/// eval} -> core -> stream -> serve -> cli at the #include level: a quoted
/// project include may only name a module on a strictly lower layer (or
/// the includer's own module). Back-edges and same-layer edges are how
/// cycles start; a deliberate exception says so
/// with NOLINT(include-layering) on the #include line.
void CheckIncludeLayering(const LexedFile& f, Reporter* rep) {
  const std::string from = FileModule(f.path);
  const int from_layer = ModuleLayer(from);
  if (from_layer < 0) return;  // not library code under src/<module>/
  for (const Include& inc : f.includes) {
    if (!inc.quoted) continue;  // system headers are outside the DAG
    const size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // local/relative include
    const std::string to = inc.path.substr(0, slash);
    if (to == from) continue;  // intra-module includes are free
    const int to_layer = ModuleLayer(to);
    if (to_layer < 0) continue;  // not a project module
    if (to_layer >= from_layer) {
      rep->Report(inc.line, "include-layering",
                  "module '" + from + "' (layer " +
                      std::to_string(from_layer) + ") must not include '" +
                      inc.path + "' from module '" + to + "' (layer " +
                      std::to_string(to_layer) +
                      "); the module DAG is util -> graph -> {data, rank} "
                      "-> {ensemble, eval} -> core -> stream -> serve -> "
                      "cli");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-read
// ---------------------------------------------------------------------------

/// True for the files that decode untrusted bytes. Matches by
/// boundary-anchored path fragment so the fixture tree (which mirrors
/// src/ paths) is scoped identically.
bool IsParserFile(const std::string& path) {
  static const char* kParserPaths[] = {
      "graph/graph_io",      "data/dataset",         "data/ground_truth",
      "serve/snapshot",      "serve/request_framer", "util/byte_reader",
      "stream/edge_batch"};
  for (const char* p : kParserPaths) {
    if (PathContains(path, p)) return true;
  }
  return false;
}

/// In parser files, every byte-to-value conversion goes through the
/// bounds-checked ByteReader: raw memcpy() and mutable reinterpret_cast
/// are how out-of-bounds reads from attacker-controlled buffers happen.
/// `reinterpret_cast<const ...>` stays legal — that is the write path
/// (serializing trusted in-memory state), not a read from input. The two
/// low-level sites inside ByteReader itself carry NOLINT(unchecked-read).
void CheckUncheckedRead(const LexedFile& f, Reporter* rep) {
  if (!IsParserFile(f.path)) return;
  const std::vector<Token>& t = f.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    const bool followed_by = [&](const char* punct) {
      return i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct &&
             t[i + 1].text == punct;
    }(s == "memcpy" ? "(" : "<");
    if (s == "memcpy" && followed_by) {
      rep->Report(t[i].line, "unchecked-read",
                  "raw memcpy() in a parser file; decode through the "
                  "bounds-checked ByteReader (util/byte_reader.h) or mark "
                  "the sanctioned low-level site NOLINT(unchecked-read)");
    } else if (s == "reinterpret_cast" && followed_by) {
      const bool to_const = i + 2 < t.size() &&
                            t[i + 2].kind == TokKind::kIdent &&
                            t[i + 2].text == "const";
      if (to_const) continue;  // write path: serializing trusted state
      rep->Report(t[i].line, "unchecked-read",
                  "mutable reinterpret_cast in a parser file; decode "
                  "through the bounds-checked ByteReader "
                  "(util/byte_reader.h) or mark the sanctioned low-level "
                  "site NOLINT(unchecked-read)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-intrinsics
// ---------------------------------------------------------------------------

/// True when the include path names an x86 SIMD intrinsics header
/// (immintrin.h, x86intrin.h, emmintrin.h, ...).
bool IsIntrinsicsHeader(const std::string& path) {
  const std::string base = Basename(path);
  const std::string suffix = "intrin.h";
  return base.size() >= suffix.size() &&
         base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// SIMD intrinsics are confined to src/rank/kernel/: that directory owns
/// the runtime ISA dispatch and the scalar oracle that proves each vector
/// path bit-identical, so an intrinsic anywhere else is a portability and
/// bit-identity hazard the kernel seam exists to prevent. Flags
/// _mm_/_mm256_/_mm512_ calls, __m128/__m256/__m512 vector types, and
/// *intrin.h includes in the rest of src/. A deliberate exception says so
/// with NOLINT(raw-intrinsics).
void CheckRawIntrinsics(const LexedFile& f, Reporter* rep) {
  if (!PathContains(f.path, "src/")) return;  // tools/tests/benches free
  if (PathContains(f.path, "src/rank/kernel/")) return;  // the one home
  for (const Include& inc : f.includes) {
    if (IsIntrinsicsHeader(inc.path)) {
      rep->Report(inc.line, "raw-intrinsics",
                  "#include <" + inc.path +
                      "> outside src/rank/kernel/; SIMD code belongs behind "
                      "the iteration-engine seam (rank/kernel/simd.h), which "
                      "owns runtime dispatch and the scalar bit-identity "
                      "oracle");
    }
  }
  const std::vector<Token>& t = f.tokens;
  for (const Token& tok : t) {
    if (tok.kind != TokKind::kIdent) continue;
    const std::string& s = tok.text;
    const bool call_prefix = s.rfind("_mm_", 0) == 0 ||
                             s.rfind("_mm256_", 0) == 0 ||
                             s.rfind("_mm512_", 0) == 0;
    const bool vector_type = s.rfind("__m128", 0) == 0 ||
                             s.rfind("__m256", 0) == 0 ||
                             s.rfind("__m512", 0) == 0;
    if (call_prefix || vector_type) {
      rep->Report(tok.line, "raw-intrinsics",
                  "raw SIMD intrinsic '" + s +
                      "' outside src/rank/kernel/; route vector work through "
                      "the iteration engine (rank/kernel/), or mark a "
                      "deliberate exception NOLINT(raw-intrinsics)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: stale-nolint
// ---------------------------------------------------------------------------

/// The scholar_lint rule names; only these are audited for staleness.
/// Other tools share the NOLINT(rule): syntax (scholar_analyze's
/// unchecked-status / hot-loop-alloc / lock-order / determinism, clang
/// dialects like runtime/explicit) and must not be second-guessed here.
const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "mutex-guard",          "float-compare",    "unseeded-rng",
      "raw-stdout",           "include-order",    "materialize-snapshot",
      "include-layering",     "unchecked-read",   "raw-intrinsics"};
  return kRules;
}

/// A NOLINT(rule) that suppressed nothing is dead weight: it silently
/// disables the rule for whatever lands on that line next, and it rots
/// the audit trail (readers assume the exception is still load-bearing).
/// Bare `// NOLINT` is not audited — it names no rule to hold it to.
/// Must run after every other rule pass so WasSuppressed is complete.
void CheckStaleNolint(const LexedFile& f, Reporter* rep) {
  for (const auto& entry : f.suppressions) {
    const int line = entry.first;
    const std::set<std::string>& rules = entry.second;
    for (const std::string& rule : rules) {
      if (KnownRules().count(rule) == 0) continue;  // another tool's rule
      if (rep->WasSuppressed(line, rule)) continue;
      rep->Report(line, "stale-nolint",
                  "NOLINT(" + rule +
                      ") suppresses nothing on this line; remove the stale "
                      "marker (dead suppressions hide future regressions)");
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

int LintFile(const std::string& path, std::vector<Diagnostic>* all) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << path << ": cannot open\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  LexedFile lexed = Lex(path, buf.str());
  Reporter rep(lexed);
  CheckMutexGuard(lexed, &rep);
  CheckFloatCompare(lexed, &rep);
  CheckRng(lexed, &rep);
  CheckRawStdout(lexed, &rep);
  CheckIncludeOrder(lexed, &rep);
  CheckMaterializeSnapshot(lexed, &rep);
  CheckIncludeLayering(lexed, &rep);
  CheckUncheckedRead(lexed, &rep);
  CheckRawIntrinsics(lexed, &rep);
  CheckStaleNolint(lexed, &rep);  // keep last: audits the passes above
  all->insert(all->end(), rep.diagnostics().begin(), rep.diagnostics().end());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: scholar_lint file...\n"
                << "rules: mutex-guard float-compare unseeded-rng "
                   "raw-stdout include-order materialize-snapshot "
                   "include-layering unchecked-read raw-intrinsics "
                   "stale-nolint\n"
                << "suppress with // NOLINT or // NOLINT(rule-a,rule-b) "
                   "leading the comment\n";
      return 0;
    }
    files.push_back(std::move(arg));
  }
  if (files.empty()) {
    std::cerr << "usage: scholar_lint file...\n";
    return 2;
  }
  std::vector<Diagnostic> diagnostics;
  int status = 0;
  for (const std::string& f : files) {
    status = std::max(status, LintFile(f, &diagnostics));
  }
  for (const Diagnostic& d : diagnostics) {
    std::cout << d.file << ":" << d.line << ": " << d.rule << ": "
              << d.message << "\n";
  }
  if (!diagnostics.empty()) {
    std::cout << diagnostics.size() << " violation"
              << (diagnostics.size() == 1 ? "" : "s") << " in "
              << files.size() << " file" << (files.size() == 1 ? "" : "s")
              << "\n";
    return 1;
  }
  return status;
}
