// mutex-guard: a class or struct that declares a mutex member (std::mutex
// or scholar::Mutex) must annotate at least one member with GUARDED_BY /
// PT_GUARDED_BY. An unannotated mutex protects nothing -Wthread-safety
// can check; the lock's purpose must be written down.

#include "analyze/rules.h"

namespace analyze {

void CheckMutexGuard(const LexedFile& f, std::vector<Finding>* out) {
  struct ClassCtx {
    int depth;                     // brace depth of the class body
    std::vector<int> mutex_lines;  // direct mutex member declarations
    bool has_guard = false;
  };
  const std::vector<Token>& t = f.tokens;
  Reporter reporter(f, out);
  std::vector<ClassCtx> stack;
  int depth = 0;
  bool next_brace_is_class = false;

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
              reporter.Report(
                  ln, "mutex-guard",
                  "class declares a mutex member but annotates no member "
                  "with GUARDED_BY; state this mutex protects must be "
                  "annotated (util/thread_annotations.h)");
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
        !(i > 0 && IsIdent(t, i - 1, "enum"))) {
      for (size_t j = i + 1; j < t.size() && j < i + 64; ++j) {
        if (t[j].kind == TokKind::kIdent && IsPunct(t, j + 1, "(") &&
            t[j].text.size() >= 2 &&
            t[j].text.find_first_not_of(
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789") ==
                std::string::npos) {
          int nest = 0;
          size_t k = j + 1;
          for (; k < t.size() && k < j + 64; ++k) {
            if (IsPunct(t, k, "(")) ++nest;
            else if (IsPunct(t, k, ")") && --nest == 0) break;
          }
          j = k;
          continue;
        }
        if (IsPunct(t, j, ";") || IsPunct(t, j, ")")) break;
        if (IsPunct(t, j, "{")) {
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
    if (tok.text == "std" && IsPunct(t, i + 1, "::") &&
        (IsIdent(t, i + 2, "mutex") || IsIdent(t, i + 2, "recursive_mutex") ||
         IsIdent(t, i + 2, "shared_mutex")) &&
        !(i > 0 && IsPunct(t, i - 1, "<")) && i + 4 < t.size() &&
        t[i + 3].kind == TokKind::kIdent && IsPunct(t, i + 4, ";")) {
      stack.back().mutex_lines.push_back(tok.line);
      continue;
    }
    // `Mutex NAME ;` — the annotated scholar::Mutex.
    if (tok.text == "Mutex" && !(i > 0 && IsPunct(t, i - 1, "<")) &&
        !(i > 0 && IsPunct(t, i - 1, "::")) && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::kIdent && IsPunct(t, i + 2, ";")) {
      stack.back().mutex_lines.push_back(tok.line);
    }
  }
}

}  // namespace analyze
