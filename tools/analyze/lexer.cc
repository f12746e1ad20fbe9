// Tokenizer for scholar_analyze. Comments feed the marker tables,
// #include lines feed the include list, and three behaviors serve the
// rules:
//
//  - NOLINT markers are honored only at the *start* of a comment and only
//    in the reason-carrying form `NOLINT(rule-a,rule-b): reason`. A doc
//    sentence that merely mentions NOLINT(...) mid-comment is not a
//    suppression, and a bare `NOLINT` suppresses nothing.
//  - `analyze:init-scope` comment markers are recorded per line; the
//    hot-loop-alloc rule uses them to exempt init-phase loops/functions.
//  - Raw source lines are retained so findings can fingerprint their line
//    content for the baseline file.

#include "analyze/core.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace analyze {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses one comment body (delimiters included) for the analyzer's
/// markers. `line` is the comment's first line.
void ScanComment(const std::string& comment, int line, LexedFile* out) {
  if (comment.find("analyze:init-scope") != std::string::npos) {
    out->init_markers.insert(line);
  }
  // A suppression must lead the comment: skip the delimiter and decoration
  // characters, then expect NOLINT immediately.
  size_t pos = comment.find("NOLINT");
  if (pos == std::string::npos) return;
  for (size_t i = 0; i < pos; ++i) {
    char c = comment[i];
    if (c != '/' && c != '*' && c != '!' && c != '<' && c != ' ' && c != '\t') {
      return;  // prose before NOLINT: a mention, not a marker
    }
  }
  size_t after = pos + 6;  // strlen("NOLINT")
  if (after >= comment.size() || comment[after] != '(') return;  // bare NOLINT names no rule
  size_t close = comment.find(')', after);
  if (close == std::string::npos) return;
  Nolint marker;
  std::string list = comment.substr(after + 1, close - after - 1);
  std::string rule;
  std::istringstream ss(list);
  while (std::getline(ss, rule, ',')) {
    size_t b = rule.find_first_not_of(" \t");
    size_t e = rule.find_last_not_of(" \t");
    if (b != std::string::npos) marker.rules.insert(rule.substr(b, e - b + 1));
  }
  if (marker.rules.empty()) return;
  // The reason: `): <non-empty text>` after the rule list.
  size_t r = close + 1;
  if (r < comment.size() && comment[r] == ':') {
    ++r;
    while (r < comment.size() &&
           (comment[r] == ' ' || comment[r] == '\t')) {
      ++r;
    }
    // Anything alphanumeric after the colon counts as a reason; trailing
    // comment-closers alone do not.
    while (r < comment.size()) {
      char c = comment[r];
      if (std::isalnum(static_cast<unsigned char>(c))) {
        marker.has_reason = true;
        break;
      }
      ++r;
    }
  }
  auto it = out->nolints.find(line);
  if (it == out->nolints.end()) {
    out->nolints[line] = std::move(marker);
  } else {
    it->second.rules.insert(marker.rules.begin(), marker.rules.end());
    it->second.has_reason = it->second.has_reason && marker.has_reason;
  }
}

}  // namespace

LexedFile Lex(const std::string& path, const std::string& text) {
  LexedFile out;
  out.path = path;
  out.norm_path = NormalizePath(path);
  {
    std::istringstream ls(text);
    std::string line;
    while (std::getline(ls, line)) out.lines.push_back(line);
  }
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
      ScanComment(text.substr(i, end - i), line, &out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      size_t end = text.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      const std::string body = text.substr(i, end - i);
      ScanComment(body, line, &out);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = end == n ? n : end + 2;
      at_line_start = false;
      continue;
    }
    // Preprocessor directive: consume to end of line (honoring \-splices);
    // record #include targets. Trailing comments on the directive line are
    // still scanned so a NOLINT works there.
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
      const int directive_line = line;
      size_t comment_at = std::string::npos;
      while (i < n && text[i] != '\n') {
        if (text[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '/' && peek(1) == '/' && comment_at == std::string::npos) {
          comment_at = i;
        }
        ++i;
      }
      if (comment_at != std::string::npos) {
        ScanComment(text.substr(comment_at, i - comment_at), directive_line,
                    &out);
      }
      continue;
    }
    at_line_start = false;
    // String literal (incl. raw strings).
    if (c == '"' || (c == 'R' && peek(1) == '"')) {
      if (c == 'R' && peek(1) == '"') {
        size_t open = text.find('(', i + 2);
        if (open == std::string::npos) {
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
    // Number (pp-number incl. digit separators and exponent signs).
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

}  // namespace analyze
