// hot-loop-alloc: the per-iteration sweep loops of the ranking kernels
// must not allocate. An allocation that is cheap at n=10^3 is a
// throughput cliff at the paper's corpus scale (millions of nodes, tens
// of sweeps), and allocator locks serialize the parallel gather path.
//
// Scope: src/rank/kernel/**, src/rank/*.cc, src/stream/frontier_rank.cc.
// Exemptions: loops (or whole functions) under an `// analyze:init-scope`
// marker — CSR building and similar init-phase
// work allocates by design; and return/throw statements, which are cold
// error paths (building an error message there is fine).

#include "analyze/rules.h"

namespace analyze {

namespace {

bool InHotScope(const std::string& path) {
  if (PathContains(path, "src/rank/kernel/")) return true;
  if (path == "src/stream/frontier_rank.cc") return true;
  const std::string prefix = "src/rank/";
  if (path.compare(0, prefix.size(), prefix) == 0) {
    const std::string rest = path.substr(prefix.size());
    if (rest.find('/') == std::string::npos && rest.size() > 3 &&
        rest.compare(rest.size() - 3, 3, ".cc") == 0) {
      return true;
    }
  }
  return false;
}

bool IsGrowthMethod(const std::string& s) {
  static const std::set<std::string> kMethods = {
      "push_back", "emplace_back", "push_front", "emplace_front", "emplace",
      "resize",    "reserve",      "assign",     "append",         "insert"};
  return kMethods.count(s) > 0;
}

bool IsAllocFn(const std::string& s) {
  static const std::set<std::string> kFns = {"malloc", "calloc", "realloc",
                                             "strdup", "aligned_alloc",
                                             "make_unique", "make_shared"};
  return kFns.count(s) > 0;
}

bool HasMarker(const LexedFile& f, int line) {
  return f.init_markers.count(line) > 0 || f.init_markers.count(line - 1) > 0;
}

}  // namespace

void CheckHotLoopAlloc(const LexedFile& f, const FileModel& model,
                       std::vector<Finding>* out) {
  if (!InHotScope(f.norm_path)) return;
  const std::vector<Token>& t = f.tokens;
  Reporter reporter(f, out);

  for (const FunctionInfo& fn : model.functions) {
    if (HasMarker(f, fn.line)) continue;  // whole function is init-phase

    std::vector<size_t> loop_ends;  // token index one past each active loop
    size_t i = fn.body_begin;
    while (i < fn.body_end && i < t.size()) {
      while (!loop_ends.empty() && i >= loop_ends.back()) loop_ends.pop_back();
      const Token& tok = t[i];
      if (tok.kind != TokKind::kIdent) {
        ++i;
        continue;
      }
      // Loop openings.
      if ((tok.text == "for" || tok.text == "while") &&
          IsPunct(t, i + 1, "(")) {
        size_t close = MatchForward(t, i + 1);
        size_t body = close + 1;
        size_t end;
        if (IsPunct(t, body, "{")) {
          end = MatchForward(t, body) + 1;
        } else {
          // Single-statement body: through the next top-level ';'.
          int paren = 0;
          end = body;
          while (end < fn.body_end && end < t.size()) {
            if (IsPunct(t, end, "(")) ++paren;
            else if (IsPunct(t, end, ")")) --paren;
            else if (IsPunct(t, end, ";") && paren == 0) break;
            ++end;
          }
          ++end;
        }
        if (HasMarker(f, tok.line)) {
          i = end;  // exempt loop: skip its whole subtree
          continue;
        }
        loop_ends.push_back(end);
        i = body;
        continue;
      }
      if (tok.text == "do" && IsPunct(t, i + 1, "{")) {
        size_t end = MatchForward(t, i + 1) + 1;
        if (HasMarker(f, tok.line)) {
          i = end;
          continue;
        }
        loop_ends.push_back(end);
        i += 2;
        continue;
      }
      if (loop_ends.empty()) {
        ++i;
        continue;
      }
      // Cold error paths: skip return/throw statements wholesale.
      if (tok.text == "return" || tok.text == "throw") {
        int paren = 0;
        while (i < fn.body_end && i < t.size()) {
          if (IsPunct(t, i, "(")) ++paren;
          else if (IsPunct(t, i, ")")) --paren;
          else if (IsPunct(t, i, ";") && paren <= 0) break;
          ++i;
        }
        ++i;
        continue;
      }
      // Allocation patterns inside an active, non-exempt loop.
      const std::string hint =
          "; hoist it out of the sweep loop, mark the scope "
          "// analyze:init-scope if this is init-phase work, or suppress "
          "with NOLINT(hot-loop-alloc): reason";
      if (tok.text == "new" && !IsPunct(t, i + 1, "(")) {
        reporter.Report(tok.line, "hot-loop-alloc",
                        "'new' inside a hot-path loop" + hint);
      } else if (IsAllocFn(tok.text) &&
                 (IsPunct(t, i + 1, "(") || IsPunct(t, i + 1, "<"))) {
        reporter.Report(tok.line, "hot-loop-alloc",
                        "'" + tok.text + "' inside a hot-path loop" + hint);
      } else if (IsGrowthMethod(tok.text) && i > 0 &&
                 (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->")) &&
                 IsPunct(t, i + 1, "(")) {
        reporter.Report(tok.line, "hot-loop-alloc",
                        "container '" + tok.text +
                            "' inside a hot-path loop may reallocate" + hint);
      } else if (tok.text == "to_string" && IsPunct(t, i + 1, "(")) {
        reporter.Report(tok.line, "hot-loop-alloc",
                        "'to_string' builds a heap string inside a hot-path "
                        "loop" + hint);
      } else if ((tok.text == "string" || tok.text == "ostringstream" ||
                  tok.text == "stringstream") &&
                 i > 0 && IsPunct(t, i - 1, "::") &&
                 (IsPunct(t, i + 1, "(") || IsPunct(t, i + 1, "{"))) {
        reporter.Report(tok.line, "hot-loop-alloc",
                        "temporary '" + tok.text +
                            "' constructed inside a hot-path loop" + hint);
      }
      ++i;
    }
  }
}

}  // namespace analyze
