// Scope model: function boundaries, enclosing-class context, and token
// matching helpers shared by every scholar_analyze rule. The dataflow
// rules reason per function body, with class context for qualifying
// members (mutexes, callees); the token rules need only the helpers.

#ifndef SCHOLAR_ANALYZE_MODEL_H_
#define SCHOLAR_ANALYZE_MODEL_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "analyze/core.h"

namespace analyze {

/// One function definition (free function, out-of-line method, or inline
/// in-class method). Token indexes point into LexedFile::tokens.
struct FunctionInfo {
  std::string name;        // simple name: "Shutdown"
  std::string class_name;  // enclosing/qualifying class, "" for free fns
  std::string qualified;   // "ThreadPool::Shutdown" / "RunPowerLoop"
  int line = 0;            // line of the name token
  size_t name_tok = 0;     // index of the name token
  size_t body_begin = 0;   // index of the body '{'
  size_t body_end = 0;     // index one past the matching '}'
};

struct FileModel {
  std::vector<FunctionInfo> functions;
};

/// Extracts every function definition with its class context. Function
/// bodies are opaque at this level (no nested definitions are reported);
/// rules walk [body_begin, body_end) themselves.
FileModel BuildModel(const LexedFile& f);

/// How a lambda came to run (or not) on another thread. The analyzer
/// models the repo's own parallel primitives, not the standard library at
/// large: these are the only ways code in this codebase goes parallel.
enum class RegionKind {
  kNone,         // plain lambda — runs on the defining thread
  kParallelFor,  // argument of ParallelFor / ParallelForChunks (blocking:
                 // the call joins before returning)
  kSubmit,       // argument of ThreadPool::Submit / Schedule — escapes the
                 // defining scope and runs on a pool worker
  kThread,       // std::thread constructor body (EventLoop workers and the
                 // CLI watcher use this shape)
};

/// One lambda expression inside a function body, with its capture list,
/// parameter names, and parallel-execution classification. `parallel` is
/// transitive: a lambda defined inside a parallel body inherits it (it can
/// only ever run on that worker thread).
struct LambdaInfo {
  size_t intro = 0;       // index of the '[' token
  size_t body_begin = 0;  // index of the body '{'
  size_t body_end = 0;    // index of the matching '}'
  int line = 0;           // line of the intro
  RegionKind region = RegionKind::kNone;
  bool parallel = false;  // region != kNone, or enclosing lambda parallel
  bool default_ref = false;   // [&]
  bool default_copy = false;  // [=]
  bool captures_this = false;
  std::set<std::string> by_ref;  // explicit &name captures
  std::set<std::string> by_val;  // explicit name / name=expr captures
  std::vector<std::string> params;
  size_t enclosing = static_cast<size_t>(-1);  // index into the result
};

/// Finds every lambda in `fn`'s body and classifies it against the repo's
/// parallel primitives (see RegionKind). Results are ordered by intro
/// token, so enclosing lambdas precede nested ones.
std::vector<LambdaInfo> FindLambdas(const LexedFile& f,
                                    const FunctionInfo& fn);

/// Names of `fn`'s parameters, in order (best effort: the last identifier
/// of each top-level parameter-list entry before `,`/`)` or `=`).
std::vector<std::string> ParamNames(const std::vector<Token>& t,
                                    const FunctionInfo& fn);

/// Heuristic from the lock-summary walk: a '[' opens a lambda introducer
/// unless the previous token reads as a value (subscript).
bool IsLambdaIntro(const std::vector<Token>& t, size_t i);

/// Index of the token matching the opener at `open_idx` ("(" -> ")",
/// "{" -> "}", "[" -> "]", "<" -> ">"), or tokens.size() when unbalanced.
size_t MatchForward(const std::vector<Token>& t, size_t open_idx);

/// Index of the token matching the closer at `close_idx`, scanning
/// backward, or SIZE_MAX when unbalanced.
size_t MatchBackward(const std::vector<Token>& t, size_t close_idx);

inline bool IsIdent(const std::vector<Token>& t, size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kIdent && t[i].text == s;
}
inline bool IsPunct(const std::vector<Token>& t, size_t i, const char* s) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == s;
}

}  // namespace analyze

#endif  // SCHOLAR_ANALYZE_MODEL_H_
