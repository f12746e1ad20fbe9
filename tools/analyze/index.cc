#include "analyze/index.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace analyze {

namespace {

bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kNotCalls = {
      "if",       "for",      "while",    "switch",   "return",  "sizeof",
      "alignof",  "decltype", "noexcept", "catch",    "new",     "delete",
      "throw",    "alignas",  "static_assert",        "co_await", "co_return",
      "assert",   "defined",  "typeid",   "case",     "do",      "else",
      // Thread-safety annotation macros are attributes, not calls.
      "ACQUIRE",  "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED",
      "TRY_ACQUIRE", "REQUIRES", "REQUIRES_SHARED", "EXCLUDES",
      "ASSERT_CAPABILITY", "RETURN_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
      "GUARDED_BY"};
  return kNotCalls.count(s) > 0;
}

/// Skips a template argument list: `i` points at '<'; returns the index
/// one past the matching '>'. The lexer fuses '>>', which closes two
/// levels. Gives up (returns i + 1) if the list does not close locally.
size_t SkipTemplateArgs(const std::vector<Token>& t, size_t i) {
  int nest = 0;
  for (size_t j = i; j < t.size() && j < i + 256; ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    if (t[j].text == "<") ++nest;
    else if (t[j].text == "<<") nest += 2;
    else if (t[j].text == ">") { if (--nest <= 0) return j + 1; }
    else if (t[j].text == ">>") { nest -= 2; if (nest <= 0) return j + 1; }
    else if (t[j].text == ";" || t[j].text == "{") break;  // not template args
  }
  return i + 1;
}

/// Collects names of functions declared or defined as returning Status or
/// Result<...>: patterns `Status NAME (`, `Status Cls :: NAME (`,
/// `Result < ... > NAME (`, `Result < ... > Cls :: NAME (`.
void CollectStatusFns(const std::vector<Token>& t, FileIndex* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const bool is_status = t[i].text == "Status";
    const bool is_result = t[i].text == "Result";
    if (!is_status && !is_result) continue;
    size_t j = i + 1;
    if (is_result) {
      if (!IsPunct(t, j, "<")) continue;
      j = SkipTemplateArgs(t, j);
    }
    // Identifier chain `A :: B :: NAME` ending right before '('.
    std::string name;
    while (j < t.size() && t[j].kind == TokKind::kIdent) {
      name = t[j].text;
      if (IsPunct(t, j + 1, "::")) {
        j += 2;
        continue;
      }
      ++j;
      break;
    }
    if (name.empty() || !IsPunct(t, j, "(")) continue;
    // `Status :: OK (` and friends are calls, not declarations.
    if (IsPunct(t, i + 1, "::") && is_status) continue;
    if (is_status) out->status_fns.insert(name);
    else out->result_fns.insert(name);
  }
}

/// Collects identifiers declared with an unordered container type:
/// `std::unordered_map<...> NAME` / `std::unordered_set<...> NAME`.
void CollectUnordered(const std::vector<Token>& t, FileIndex* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text != "unordered_map" && t[i].text != "unordered_set" &&
        t[i].text != "unordered_multimap" && t[i].text != "unordered_multiset") {
      continue;
    }
    size_t j = i + 1;
    if (!IsPunct(t, j, "<")) continue;
    j = SkipTemplateArgs(t, j);
    // Skip ref/pointer declarators.
    while (j < t.size() && t[j].kind == TokKind::kPunct &&
           (t[j].text == "&" || t[j].text == "*")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent &&
        t[j].text != "const") {
      out->unordered_local.insert(t[j].text);
    }
  }
}

/// Collects identifiers declared with a std::atomic type:
/// `std::atomic<...> NAME` and the `std::atomic_*` aliases. Atomic
/// members are exempt from shared-mutation and guard-consistency.
void CollectAtomics(const std::vector<Token>& t, FileIndex* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    size_t j = i + 1;
    if (t[i].text == "atomic") {
      if (!IsPunct(t, j, "<")) continue;
      j = SkipTemplateArgs(t, j);
    } else if (t[i].text.rfind("atomic_", 0) != 0 ||
               t[i].text == "atomic_thread_fence" ||
               t[i].text == "atomic_signal_fence") {
      continue;
    }
    while (j < t.size() && t[j].kind == TokKind::kPunct &&
           (t[j].text == "&" || t[j].text == "*")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent &&
        t[j].text != "const") {
      out->atomic_names.insert(t[j].text);
    }
  }
}

/// Renders a mutex expression (the tokens of a MutexLock / REQUIRES
/// argument) to a stable name. Member-style single identifiers (trailing
/// '_') are qualified with the enclosing class so that `mu_` in
/// ThreadPool::Shutdown and `mu_` in SnapshotManager::Get are distinct
/// lock-order graph nodes.
std::string NormalizeMutex(const std::vector<Token>& t, size_t begin,
                           size_t end, const std::string& class_name) {
  std::vector<const Token*> toks;
  for (size_t j = begin; j < end; ++j) {
    if (IsPunct(t, j, "&") && toks.empty()) continue;  // MutexLock l(&mu_)
    if (IsIdent(t, j, "this")) {
      // `this->mu_` == `mu_`: drop `this` and the following arrow.
      if (IsPunct(t, j + 1, "->")) ++j;
      continue;
    }
    toks.push_back(&t[j]);
  }
  if (toks.empty()) return "";
  if (toks.size() == 1 && toks[0]->kind == TokKind::kIdent) {
    const std::string& id = toks[0]->text;
    if (!class_name.empty() && !id.empty() && id.back() == '_') {
      return class_name + "::" + id;
    }
    return id;
  }
  std::string joined;
  for (const Token* tok : toks) {
    if (!joined.empty() && tok->kind == TokKind::kIdent &&
        std::isalnum(static_cast<unsigned char>(joined.back()))) {
      joined += ' ';
    }
    joined += tok->text;
  }
  return joined;
}

bool NolintedFor(const LexedFile& f, int line, const char* rule) {
  auto it = f.nolints.find(line);
  return it != f.nolints.end() && it->second.rules.count(rule) > 0 &&
         it->second.has_reason;
}

/// Callee-name wrappers that pass a callable through unchanged; the
/// meaningful sink is the next frame out.
bool IsForwardingWrapper(const std::string& s) {
  return s == "move" || s == "forward" || s == "ref" || s == "cref" ||
         s == "function" || s == "bind";
}

/// Callee names that store their callable argument beyond the call:
/// thread-pool handoff, container push, thread construction.
bool IsEscapeSink(const std::string& s) {
  return s == "Submit" || s == "Schedule" || s == "push_back" ||
         s == "emplace_back" || s == "emplace" || s == "insert" ||
         s == "push" || s == "thread" || s == "async";
}

/// Fills FnSummary::sink_escapes / forward_calls: does a function-typed
/// parameter of `fn` outlive the call frame? Directly (Submit, member
/// assignment, container push, return) or by forwarding to a callee whose
/// own summary escapes (resolved later by GlobalIndex::Finalize).
void AnalyzeSinks(const LexedFile& f, const FunctionInfo& fn,
                  const std::vector<LambdaInfo>& lambdas, FnSummary* s) {
  const std::vector<Token>& t = f.tokens;
  // Function-typed parameters: the last identifier of a parameter entry
  // whose type tokens read as a callable (std::function, Fn/Callback
  // template names).
  std::set<std::string> fn_params;
  {
    size_t open = fn.name_tok + 1;
    if (!IsPunct(t, open, "(")) return;
    size_t close = MatchForward(t, open);
    if (close >= t.size()) return;
    int depth = 0;
    size_t entry = open + 1;
    for (size_t j = open + 1; j <= close; ++j) {
      if (t[j].kind == TokKind::kPunct) {
        if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{" ||
            t[j].text == "<") {
          ++depth;
        } else if (t[j].text == "]" || t[j].text == "}" || t[j].text == ">" ||
                   (t[j].text == ")" && j != close)) {
          --depth;
        }
      }
      if ((IsPunct(t, j, ",") && depth == 0) || j == close) {
        bool callable = false;
        std::string name;
        for (size_t k = entry; k < j; ++k) {
          if (t[k].kind != TokKind::kIdent) {
            if (IsPunct(t, k, "=")) break;
            continue;
          }
          const std::string& id = t[k].text;
          if (id == "function" || id == "Fn" || id == "Callback" ||
              (id.size() > 2 && id.compare(id.size() - 2, 2, "Fn") == 0)) {
            callable = true;
          }
          if (id != "const") name = t[k].text;
        }
        if (callable && !name.empty()) fn_params.insert(name);
        entry = j + 1;
      }
    }
  }
  if (fn_params.empty()) return;

  // Local lambda variables (`auto work = [...]...`), so `Submit(work)`
  // counts as escaping what `work` ref-captures.
  std::map<std::string, const LambdaInfo*> named;
  for (const LambdaInfo& lam : lambdas) {
    if (lam.intro >= 2 && IsPunct(t, lam.intro - 1, "=") &&
        t[lam.intro - 2].kind == TokKind::kIdent) {
      named[t[lam.intro - 2].text] = &lam;
    }
  }
  auto lam_refs = [](const LambdaInfo& lam, const std::string& p) {
    if (lam.by_ref.count(p) > 0) return true;
    if (!lam.default_ref || lam.by_val.count(p) > 0) return false;
    for (const std::string& lp : lam.params) {
      if (lp == p) return false;
    }
    return true;
  };
  // A lambda handed straight to an escaping region that ref-captures the
  // parameter escapes it.
  for (const LambdaInfo& lam : lambdas) {
    if (lam.region != RegionKind::kSubmit && lam.region != RegionKind::kThread) {
      continue;
    }
    for (const std::string& p : fn_params) {
      if (lam_refs(lam, p)) s->sink_escapes = true;
    }
  }

  struct Frame {
    std::string callee;
    size_t close;
  };
  std::vector<Frame> frames;
  size_t stmt_start = fn.body_begin + 1;
  for (size_t i = fn.body_begin + 1; i < fn.body_end && i < t.size(); ++i) {
    while (!frames.empty() && i >= frames.back().close) frames.pop_back();
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == ";" || tok.text == "{" || tok.text == "}") {
        stmt_start = i + 1;
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (IsPunct(t, i + 1, "(") && !IsCallKeyword(tok.text)) {
      size_t close = MatchForward(t, i + 1);
      bool is_param = fn_params.count(tok.text) > 0;
      if (close < t.size() && !is_param) {
        frames.push_back({tok.text, close});
      }
      if (is_param) continue;  // invocation of the parameter — harmless
    }
    bool mentions_param = fn_params.count(tok.text) > 0;
    const LambdaInfo* via = nullptr;
    if (!mentions_param) {
      auto it = named.find(tok.text);
      if (it != named.end()) {
        for (const std::string& p : fn_params) {
          if (lam_refs(*it->second, p)) via = it->second;
        }
      }
      if (via == nullptr) continue;
    }
    if (IsPunct(t, i + 1, "(")) continue;  // direct invocation
    // Innermost meaningful enclosing call decides the fate.
    const Frame* sink = nullptr;
    for (size_t k = frames.size(); k-- > 0;) {
      if (IsForwardingWrapper(frames[k].callee)) continue;
      sink = &frames[k];
      break;
    }
    if (sink != nullptr) {
      if (sink->callee == "ParallelFor" || sink->callee == "ParallelForChunks") {
        continue;  // blocking primitives: the callable cannot outlive them
      }
      if (IsEscapeSink(sink->callee)) {
        s->sink_escapes = true;
      } else {
        s->forward_calls.insert(sink->callee);
      }
      continue;
    }
    // No enclosing call: statement-level sinks.
    size_t ss = stmt_start;
    if (IsIdent(t, ss, "return")) {
      s->sink_escapes = true;
      continue;
    }
    if (IsIdent(t, ss, "this") && IsPunct(t, ss + 1, "->")) ss += 2;
    if (ss < i && t[ss].kind == TokKind::kIdent && !t[ss].text.empty() &&
        t[ss].text.back() == '_' && IsPunct(t, ss + 1, "=")) {
      s->sink_escapes = true;  // stored into a member
    }
  }
}

/// Builds the lock summary of one function: REQUIRES entry-held mutexes,
/// MutexLock acquisitions with the held set at each site, and call sites
/// with the held set. Lambda bodies get a cleared held set — they
/// typically run deferred on another thread (thread-pool workers), where
/// the lexically enclosing guard is not held.
FnSummary Summarize(const LexedFile& f, const FunctionInfo& fn) {
  const std::vector<Token>& t = f.tokens;
  const std::vector<LambdaInfo> all_lambdas = FindLambdas(f, fn);
  auto in_parallel = [&all_lambdas](size_t tok) {
    for (const LambdaInfo& lam : all_lambdas) {
      if (lam.parallel && tok > lam.body_begin && tok < lam.body_end) {
        return true;
      }
    }
    return false;
  };
  FnSummary s;
  s.qualified = fn.qualified;
  s.simple = fn.name;
  s.file = f.norm_path;
  s.line = fn.line;

  // REQUIRES(...) between the name and the body opens the held set.
  for (size_t i = fn.name_tok; i < fn.body_begin; ++i) {
    if (!IsIdent(t, i, "REQUIRES") && !IsIdent(t, i, "REQUIRES_SHARED")) {
      continue;
    }
    if (!IsPunct(t, i + 1, "(")) continue;
    size_t close = MatchForward(t, i + 1);
    size_t arg_begin = i + 2;
    int paren = 0;
    bool negated = false;
    for (size_t j = i + 2; j <= close && j < t.size(); ++j) {
      if (IsPunct(t, j, "(")) ++paren;
      else if (IsPunct(t, j, ")") && j != close) --paren;
      if (IsPunct(t, j, "!")) negated = true;  // negative capability
      if ((IsPunct(t, j, ",") && paren == 0) || j == close) {
        if (!negated) {
          std::string m = NormalizeMutex(t, arg_begin, j, fn.class_name);
          if (!m.empty()) s.entry_held.push_back(m);
        }
        arg_begin = j + 1;
        negated = false;
      }
    }
    i = close;
  }

  struct Held {
    std::string mutex;
    int depth;
  };
  std::vector<Held> held;
  for (const std::string& m : s.entry_held) held.push_back({m, 0});
  struct LambdaFrame {
    size_t end;                // token index of the body's '}'
    std::vector<Held> saved;   // held set to restore
  };
  std::vector<LambdaFrame> lambdas;
  int depth = 0;

  auto held_names = [&held]() {
    std::vector<std::string> names;
    names.reserve(held.size());
    for (const Held& h : held) names.push_back(h.mutex);
    return names;
  };

  size_t i = fn.body_begin;
  while (i < fn.body_end && i < t.size()) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "{") {
        ++depth;
        ++i;
        continue;
      }
      if (tok.text == "}") {
        while (!held.empty() && held.back().depth == depth) held.pop_back();
        if (!lambdas.empty() && lambdas.back().end == i) {
          held = std::move(lambdas.back().saved);
          lambdas.pop_back();
        }
        --depth;
        ++i;
        continue;
      }
      if (tok.text == "[") {
        // Lambda introducer? Subscripts follow a value (ident/]/)/literal).
        bool subscript = false;
        if (i > 0) {
          const Token& prev = t[i - 1];
          subscript = prev.kind == TokKind::kIdent ||
                      prev.kind == TokKind::kNumber ||
                      prev.kind == TokKind::kString ||
                      (prev.kind == TokKind::kPunct &&
                       (prev.text == ")" || prev.text == "]"));
        }
        if (!subscript) {
          size_t close = MatchForward(t, i);
          size_t j = close + 1;
          if (IsPunct(t, j, "(")) j = MatchForward(t, j) + 1;
          // Specifiers / trailing return before the body.
          size_t limit = j + 24;
          while (j < t.size() && j < limit && !IsPunct(t, j, "{") &&
                 !IsPunct(t, j, ";") && !IsPunct(t, j, ")") &&
                 !IsPunct(t, j, ",")) {
            ++j;
          }
          if (j < t.size() && IsPunct(t, j, "{")) {
            lambdas.push_back({MatchForward(t, j), held});
            held.clear();
            depth++;  // accounts for the body '{' we now step past
            i = j + 1;
            continue;
          }
        }
        ++i;
        continue;
      }
      ++i;
      continue;
    }
    if (tok.kind != TokKind::kIdent) {
      ++i;
      continue;
    }
    if (tok.text == "MutexLock" && i + 1 < t.size() &&
        t[i + 1].kind == TokKind::kIdent && IsPunct(t, i + 2, "(")) {
      size_t close = MatchForward(t, i + 2);
      std::string m = NormalizeMutex(t, i + 3, close, fn.class_name);
      if (!m.empty()) {
        LockAcq acq;
        acq.mutex = m;
        acq.line = tok.line;
        acq.line_hash = LineFingerprint(f, tok.line);
        acq.suppressed = NolintedFor(f, tok.line, "lock-order");
        acq.held = held_names();
        s.acqs.push_back(acq);
        held.push_back({m, depth});
      }
      i = close + 1;
      continue;
    }
    if (IsPunct(t, i + 1, "(") && !IsCallKeyword(tok.text)) {
      if (s.calls.size() < 512) {
        LockCall call;
        call.callee = tok.text;
        call.line = tok.line;
        call.line_hash = LineFingerprint(f, tok.line);
        call.suppressed = NolintedFor(f, tok.line, "lock-order");
        call.in_parallel = in_parallel(i);
        call.held = held_names();
        s.calls.push_back(call);
      }
      ++i;
      continue;
    }
    if (!fn.class_name.empty() && !tok.text.empty() && tok.text.back() == '_') {
      // Member-field access (not a call — that case continued above).
      // `other.field_` / `other->field_` belongs to some other object;
      // `this->field_` and bare `field_` are ours.
      bool foreign = false;
      if (i > 0 && t[i - 1].kind == TokKind::kPunct) {
        const std::string& p = t[i - 1].text;
        if (p == "::") foreign = true;
        if ((p == "." || p == "->") &&
            !(p == "->" && i >= 2 && IsIdent(t, i - 2, "this"))) {
          foreign = true;
        }
      }
      if (!foreign && s.fields.size() < 1024) {
        FieldAccess fa;
        fa.field = fn.class_name + "::" + tok.text;
        fa.line = tok.line;
        fa.line_hash = LineFingerprint(f, tok.line);
        fa.guarded = !held.empty();
        fa.in_parallel = in_parallel(i);
        fa.suppressed = NolintedFor(f, tok.line, "guard-consistency");
        s.fields.push_back(fa);
      }
      ++i;
      continue;
    }
    ++i;
  }
  AnalyzeSinks(f, fn, all_lambdas, &s);
  return s;
}

std::string JoinCsv(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) out += ',';
    out += s;
  }
  return out;
}

/// '|' and newlines are the serialization delimiters; mutex/callee names
/// come from source tokens, so they cannot contain either — but guard
/// anyway so a hostile input cannot corrupt the cache format.
std::string Sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == '|' || c == '\n' || c == '\r') c = '?';
  }
  return out;
}

}  // namespace

bool IsAuditedRule(const std::string& rule) {
  static const std::set<std::string> kAudited = {
      "unchecked-status", "hot-loop-alloc", "determinism",
      "shared-mutation", "dangling-capture", "atomic-confinement",
      "guard-consistency", "mutex-guard", "float-compare", "raw-stdout",
      "include-order", "materialize-snapshot", "include-layering",
      "unchecked-read", "raw-intrinsics"};
  return kAudited.count(rule) > 0;
}

FileIndex BuildFileIndex(const LexedFile& f, const FileModel& model) {
  FileIndex fi;
  CollectStatusFns(f.tokens, &fi);
  CollectUnordered(f.tokens, &fi);
  CollectAtomics(f.tokens, &fi);
  for (const auto& [line, marker] : f.nolints) {
    if (!marker.has_reason) continue;
    for (const std::string& rule : marker.rules) {
      if (IsAuditedRule(rule)) {
        fi.audited_nolints[line].rules.insert(rule);
        fi.audited_nolints[line].line_hash = LineFingerprint(f, line);
      }
    }
  }
  for (const FunctionInfo& fn : model.functions) {
    fi.summaries.push_back(Summarize(f, fn));
  }
  return fi;
}

void GlobalIndex::Merge(const FileIndex& fi) {
  status_fns.insert(fi.status_fns.begin(), fi.status_fns.end());
  result_fns.insert(fi.result_fns.begin(), fi.result_fns.end());
  for (const std::string& id : fi.unordered_local) {
    if (!id.empty() && id.back() == '_') unordered_members.insert(id);
  }
  for (const std::string& id : fi.atomic_names) {
    if (!id.empty() && id.back() == '_') atomic_members.insert(id);
  }
  summaries.insert(summaries.end(), fi.summaries.begin(), fi.summaries.end());
}

void GlobalIndex::Finalize() {
  by_simple.clear();
  for (size_t i = 0; i < summaries.size(); ++i) {
    by_simple[summaries[i].simple].push_back(i);
  }
  // May-outlive fixpoint: a function escapes its callable argument if it
  // sinks it directly, or forwards it to one that does. Monotone over a
  // finite set, so the pass count bounds pathological cycles, not correct
  // inputs.
  fn_arg_escapers.clear();
  for (const FnSummary& fn : summaries) {
    if (fn.sink_escapes) fn_arg_escapers.insert(fn.simple);
  }
  for (int pass = 0; pass < 20; ++pass) {
    bool changed = false;
    for (const FnSummary& fn : summaries) {
      if (fn_arg_escapers.count(fn.simple) > 0) continue;
      for (const std::string& callee : fn.forward_calls) {
        if (fn_arg_escapers.count(callee) > 0) {
          fn_arg_escapers.insert(fn.simple);
          changed = true;
          break;
        }
      }
    }
    if (!changed) break;
  }
  // The blocking iteration primitives drain every submitted chunk before
  // returning; their callable argument cannot outlive the call even
  // though the token walk sees a Submit.
  fn_arg_escapers.erase("ParallelFor");
  fn_arg_escapers.erase("ParallelForChunks");
}

std::string SerializeFileIndex(const FileIndex& fi) {
  std::ostringstream os;
  for (const std::string& s : fi.status_fns) os << "S " << Sanitize(s) << '\n';
  for (const std::string& s : fi.result_fns) os << "R " << Sanitize(s) << '\n';
  for (const std::string& s : fi.unordered_local) {
    os << "U " << Sanitize(s) << '\n';
  }
  for (const std::string& s : fi.atomic_names) {
    os << "T " << Sanitize(s) << '\n';
  }
  for (const auto& [line, audit] : fi.audited_nolints) {
    std::vector<std::string> r(audit.rules.begin(), audit.rules.end());
    os << "N " << line << '|' << std::hex << audit.line_hash << std::dec
       << '|' << JoinCsv(r) << '\n';
  }
  for (const FnSummary& fn : fi.summaries) {
    std::vector<std::string> fwd;
    for (const std::string& c : fn.forward_calls) fwd.push_back(Sanitize(c));
    os << "D " << Sanitize(fn.qualified) << '|' << Sanitize(fn.simple) << '|'
       << Sanitize(fn.file) << '|' << fn.line << '|'
       << (fn.sink_escapes ? 1 : 0) << '|' << JoinCsv(fwd) << '|';
    std::vector<std::string> req;
    for (const std::string& m : fn.entry_held) req.push_back(Sanitize(m));
    os << JoinCsv(req) << '\n';
    for (const LockAcq& a : fn.acqs) {
      std::vector<std::string> h;
      for (const std::string& m : a.held) h.push_back(Sanitize(m));
      os << "A " << Sanitize(a.mutex) << '|' << a.line << '|' << std::hex
         << a.line_hash << std::dec << '|' << (a.suppressed ? 1 : 0) << '|'
         << JoinCsv(h) << '\n';
    }
    for (const LockCall& c : fn.calls) {
      std::vector<std::string> h;
      for (const std::string& m : c.held) h.push_back(Sanitize(m));
      os << "C " << Sanitize(c.callee) << '|' << c.line << '|' << std::hex
         << c.line_hash << std::dec << '|' << (c.suppressed ? 1 : 0) << '|'
         << (c.in_parallel ? 1 : 0) << '|' << JoinCsv(h) << '\n';
    }
    for (const FieldAccess& fa : fn.fields) {
      os << "P " << Sanitize(fa.field) << '|' << fa.line << '|' << std::hex
         << fa.line_hash << std::dec << '|' << (fa.guarded ? 1 : 0) << '|'
         << (fa.in_parallel ? 1 : 0) << '|' << (fa.suppressed ? 1 : 0)
         << '\n';
    }
  }
  return os.str();
}

}  // namespace analyze
