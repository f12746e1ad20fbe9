// Cross-file index for scholar_analyze.
//
// Pass 1 of the analyzer: every file contributes (a) the names of
// functions returning Status / Result<T>, (b) identifiers declared with an
// unordered container type, and (c) a per-function lock summary — which
// mutexes are acquired (MutexLock), which are required at entry
// (REQUIRES), and which functions are called while which mutexes are
// held. Pass 2 rules consume the merged GlobalIndex: unchecked-status
// resolves call targets against (a), determinism resolves member
// containers against (b), and lock-order builds the whole-program mutex
// acquisition graph from (c).
//
// FileIndex is serialized into the content-hash cache, so unchanged files
// contribute to the global index without being re-lexed.

#ifndef SCHOLAR_ANALYZE_INDEX_H_
#define SCHOLAR_ANALYZE_INDEX_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/core.h"
#include "analyze/model.h"

namespace analyze {

/// One MutexLock acquisition site inside a function.
struct LockAcq {
  std::string mutex;              // normalized name ("ThreadPool::mu_")
  int line = 0;
  uint64_t line_hash = 0;         // baseline fingerprint of the site
  bool suppressed = false;        // NOLINT(lock-order): reason on the line
  std::vector<std::string> held;  // mutexes held when acquiring
};

/// One call site inside a function, with the lock context at the call.
struct LockCall {
  std::string callee;             // simple name ("Shutdown")
  int line = 0;
  uint64_t line_hash = 0;
  bool suppressed = false;
  bool in_parallel = false;       // call site is inside a parallel lambda
  std::vector<std::string> held;
};

/// One member-field ('_'-suffixed identifier) access inside a member
/// function, with the lock context at the site. Feeds guard-consistency:
/// a field guarded somewhere but bare in a parallel-reachable function.
struct FieldAccess {
  std::string field;              // class-qualified: "EventLoop::stopping_"
  int line = 0;
  uint64_t line_hash = 0;
  bool guarded = false;           // some mutex held at the access
  bool in_parallel = false;       // access is inside a parallel lambda body
  bool suppressed = false;        // reasoned guard-consistency marker here
};

/// Lock behavior of one function.
struct FnSummary {
  std::string qualified;  // "ThreadPool::Shutdown"
  std::string simple;     // "Shutdown"
  std::string file;       // normalized path
  int line = 0;
  std::vector<std::string> entry_held;  // REQUIRES(...) mutexes
  std::vector<LockAcq> acqs;
  std::vector<LockCall> calls;
  std::vector<FieldAccess> fields;
  /// The function stores a function-typed parameter beyond its own frame
  /// (Submit/Schedule, member assignment, container push, return). Feeds
  /// the may-outlive fixpoint behind dangling-capture.
  bool sink_escapes = false;
  /// Callees this function forwards a function-typed parameter to; escape
  /// propagates backward through these edges.
  std::set<std::string> forward_calls;
};

/// Per-file contribution to the global index.
struct FileIndex {
  std::set<std::string> status_fns;       // functions returning Status
  std::set<std::string> result_fns;       // functions returning Result<T>
  std::set<std::string> unordered_local;  // all unordered-declared idents
  std::set<std::string> atomic_names;     // idents declared std::atomic<...>
  /// Reason-carrying NOLINT markers naming audited rules, by line.
  /// Kept in the index (and thus the cache) so the stale-nolint audit can
  /// run over files whose findings came from cache without re-lexing.
  struct AuditedNolint {
    std::set<std::string> rules;
    uint64_t line_hash = 0;  // baseline fingerprint of the marker's line
  };
  std::map<int, AuditedNolint> audited_nolints;
  std::vector<FnSummary> summaries;
};

/// Merged view over every file.
struct GlobalIndex {
  std::set<std::string> status_fns;
  std::set<std::string> result_fns;
  /// Member-style ('_'-suffixed) unordered identifiers from any file —
  /// members are declared in headers but iterated in .cc files.
  std::set<std::string> unordered_members;
  /// Member-style std::atomic identifiers — declared in headers, written
  /// in .cc files, so atomic-ness must cross the file boundary too.
  std::set<std::string> atomic_members;
  /// Simple names of functions whose function-typed argument may outlive
  /// the call (directly or through forwarding). Built by Finalize.
  std::set<std::string> fn_arg_escapers;
  std::vector<FnSummary> summaries;  // all files
  std::map<std::string, std::vector<size_t>> by_simple;  // name -> indexes

  void Merge(const FileIndex& fi);
  void Finalize();  // builds by_simple and the may-outlive fixpoint
};

/// True for every rule whose NOLINT marker suppresses a finding on its
/// own line; the stale-nolint audit covers exactly these (see
/// FileIndex::audited_nolints). lock-order is out: its markers remove
/// acquisition-graph edges rather than suppress a finding.
bool IsAuditedRule(const std::string& rule);

/// Builds one file's contribution (pass 1).
FileIndex BuildFileIndex(const LexedFile& f, const FileModel& model);

/// Stable serialization of a FileIndex, used both by the cache and to
/// compute the global signature that keys cached findings.
std::string SerializeFileIndex(const FileIndex& fi);

}  // namespace analyze

#endif  // SCHOLAR_ANALYZE_INDEX_H_
