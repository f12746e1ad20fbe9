// guard-consistency: a field guarded somewhere, bare somewhere parallel.
//
// Clang's thread-safety analysis only fires where GUARDED_BY annotations
// exist; this rule needs none. The per-function summaries record every
// member-field access with the lock context at the site (index.cc). If
// some function accesses `Cls::field_` under a MutexLock but another
// function touches it bare — and that other function is reachable from a
// parallel context — the locking discipline is inconsistent: either the
// guarded sites are cargo cult or the bare site is a race. Both deserve a
// look, which is exactly what a finding is.
//
// "Reachable from a parallel context" is a fixpoint over the merged call
// graph: seeds are callees invoked from inside parallel lambda bodies
// (LockCall::in_parallel) plus accesses lexically inside such bodies;
// reachability then propagates through simple-name call edges. Name-level
// resolution is deliberately coarse (same trade-off as lock-order): a
// false edge costs a triaged finding, a missed edge costs nothing that
// TSan wouldn't also miss.
//
// Exemptions: mutex/condvar fields themselves (every mutex is "accessed
// bare" at its own MutexLock sites), std::atomic members, and
// constructors/destructors (no concurrent observer exists yet/anymore).
//
// Also in this file: the stale-nolint audit over every audited rule's
// suppressions (IsAuditedRule) — it needs the same pre-filter finding set
// this rule feeds, so they live together.

#include "analyze/rules.h"

#include <algorithm>
#include <tuple>

namespace analyze {

namespace {

std::string ClassOf(const std::string& qualified) {
  size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? std::string() : qualified.substr(0, pos);
}

std::string FieldNameOf(const std::string& qualified_field) {
  size_t pos = qualified_field.rfind("::");
  return pos == std::string::npos ? qualified_field
                                  : qualified_field.substr(pos + 2);
}

}  // namespace

std::vector<Finding> CheckGuardConsistency(const GlobalIndex& gi) {
  // Fields that are themselves synchronization objects.
  std::set<std::string> mutex_fields;       // "Cls::mu_" forms
  std::set<std::string> mutex_bare_names;   // "mu_" forms
  for (const FnSummary& fn : gi.summaries) {
    auto note = [&](const std::string& m) {
      if (m.empty()) return;
      mutex_fields.insert(m);
      mutex_bare_names.insert(FieldNameOf(m));
    };
    for (const std::string& m : fn.entry_held) note(m);
    for (const LockAcq& a : fn.acqs) note(a.mutex);
  }

  // Parallel-reachability fixpoint over simple names.
  std::set<std::string> parallel_fns;
  for (const FnSummary& fn : gi.summaries) {
    for (const LockCall& c : fn.calls) {
      if (c.in_parallel) parallel_fns.insert(c.callee);
    }
  }
  for (int pass = 0; pass < 20; ++pass) {
    bool changed = false;
    for (const FnSummary& fn : gi.summaries) {
      if (parallel_fns.count(fn.simple) == 0) continue;
      for (const LockCall& c : fn.calls) {
        if (c.in_parallel) continue;  // already seeded
        if (parallel_fns.insert(c.callee).second) changed = true;
      }
    }
    if (!changed) break;
  }

  // Field -> first guarded witness (file, line, function).
  struct Witness {
    std::string file;
    int line = 0;
    std::string fn;
  };
  std::map<std::string, Witness> guarded;
  for (const FnSummary& fn : gi.summaries) {
    for (const FieldAccess& fa : fn.fields) {
      if (!fa.guarded) continue;
      auto it = guarded.find(fa.field);
      if (it == guarded.end()) {
        guarded[fa.field] = {fn.file, fa.line, fn.qualified};
      }
    }
  }

  std::vector<Finding> out;
  std::set<std::tuple<std::string, int, std::string>> seen;
  for (const FnSummary& fn : gi.summaries) {
    const std::string cls = ClassOf(fn.qualified);
    const bool is_ctor_dtor = !cls.empty() && fn.simple == cls;
    if (is_ctor_dtor) continue;
    const bool fn_parallel = parallel_fns.count(fn.simple) > 0;
    for (const FieldAccess& fa : fn.fields) {
      if (fa.guarded) continue;
      if (!fa.in_parallel && !fn_parallel) continue;
      auto w = guarded.find(fa.field);
      if (w == guarded.end()) continue;  // never guarded anywhere
      if (w->second.file == fn.file && w->second.line == fa.line) continue;
      if (mutex_fields.count(fa.field) > 0 ||
          mutex_bare_names.count(FieldNameOf(fa.field)) > 0) {
        continue;
      }
      if (gi.atomic_members.count(FieldNameOf(fa.field)) > 0) continue;
      if (!seen.insert({fn.file, fa.line, fa.field}).second) continue;
      Finding f;
      f.rule = "guard-consistency";
      f.file = fn.file;
      f.line = fa.line;
      f.line_hash = fa.line_hash;
      f.message = "field '" + fa.field + "' is accessed under a mutex in " +
                  w->second.fn + " (" + w->second.file + ":" +
                  std::to_string(w->second.line) +
                  ") but bare here, in code reachable from a parallel "
                  "context; hold the guard, make the field atomic, or "
                  "record why the schedule makes this safe";
      f.nolint_suppressed = fa.suppressed;
      out.push_back(f);
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.message) <
           std::tie(b.file, b.line, b.message);
  });
  return out;
}

std::vector<Finding> CheckStaleNolints(
    const std::vector<std::pair<std::string, const FileIndex*>>& indexes,
    const std::vector<Finding>& findings) {
  // Everything any rule produced this run, suppressed or not.
  std::set<std::tuple<std::string, int, std::string>> produced;
  for (const Finding& f : findings) {
    produced.insert({f.file, f.line, f.rule});
  }
  std::vector<Finding> out;
  for (const auto& [file, fi] : indexes) {
    for (const auto& [line, audit] : fi->audited_nolints) {
      for (const std::string& rule : audit.rules) {
        if (produced.count({file, line, rule}) > 0) continue;
        Finding f;
        f.rule = "stale-nolint";
        f.file = file;
        f.line = line;
        f.line_hash = audit.line_hash;
        f.message = "NOLINT(" + rule +
                    ") here no longer suppresses any '" + rule +
                    "' finding; the audited risk is gone — remove the "
                    "marker (or re-justify it against a live finding)";
        out.push_back(f);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.message) <
           std::tie(b.file, b.line, b.message);
  });
  return out;
}

}  // namespace analyze
