// The scholar_analyze rules. Per-file rules take the lexed file, plus
// the scope model and the global index where they reason per function or
// resolve names across files; lock-order and guard-consistency are
// whole-program and run once over the merged index. The token rules at
// the end need the lexed file alone. The parallel-region pack
// (shared-mutation, dangling-capture, atomic-confinement,
// guard-consistency) reasons about the repo's own parallel primitives —
// ParallelFor bodies, ThreadPool Submit/Schedule lambdas, std::thread
// constructors — via model.h's FindLambdas classification.

#ifndef SCHOLAR_ANALYZE_RULES_H_
#define SCHOLAR_ANALYZE_RULES_H_

#include <string>
#include <utility>
#include <vector>

#include "analyze/core.h"
#include "analyze/index.h"
#include "analyze/model.h"

namespace analyze {

/// unchecked-status: a call to a Status / Result<T>-returning function
/// whose value is neither assigned, returned, nor inspected. Discarding
/// via `(void)` or `static_cast<void>` is also flagged — the analyzer is
/// the audit trail, so silent casts are not an escape hatch (use
/// `// NOLINT(unchecked-status): reason`).
void CheckUncheckedStatus(const LexedFile& f, const FileModel& model,
                          const GlobalIndex& gi, std::vector<Finding>* out);

/// hot-loop-alloc: allocation (new/malloc/make_unique), container growth
/// (push_back/resize/reserve/...), and string construction inside loops of
/// the ranking hot path (src/rank/kernel/, src/rank/*.cc). Loops and
/// functions under an `// analyze:init-scope` marker are exempt; so are
/// return/throw statements (cold error paths).
void CheckHotLoopAlloc(const LexedFile& f, const FileModel& model,
                       std::vector<Finding>* out);

/// determinism: (a) iteration over unordered containers in score-affecting
/// subsystems (src/rank/, src/ensemble/, src/stream/, src/serve/) —
/// iteration order varies across libstdc++ versions and hash seeds, so it
/// must never flow into scores, snapshots, or wire output; (b) wall-clock
/// and libc PRNG calls and the std random engines anywhere outside
/// src/util/rng; (c) clock reads, WallTimer included, in the subsystems
/// of (a) outside src/serve/latency_histogram*.
void CheckDeterminism(const LexedFile& f, const FileModel& model,
                      const GlobalIndex& gi, std::vector<Finding>* out);

/// lock-order: builds the cross-file mutex acquisition graph (direct
/// MutexLock sites plus transitive may-acquire sets through calls) and
/// reports every cycle with a witness path, plus direct self-deadlocks.
std::vector<Finding> CheckLockOrder(const GlobalIndex& gi);

/// shared-mutation: a write (assignment, compound assignment, ++/--)
/// through a by-reference capture inside a parallel lambda body, with no
/// Mutex held at the site, no std::atomic declaration for the name, and
/// no per-chunk subscript on the write — the sharing shapes the
/// deterministic ParallelFor contract forbids.
void CheckSharedMutation(const LexedFile& f, const FileModel& model,
                         const GlobalIndex& gi, std::vector<Finding>* out);

/// dangling-capture: a lambda that captures locals (or `this`-adjacent
/// stack state) by reference and escapes its defining scope — handed to
/// ThreadPool::Submit/Schedule or std::thread directly, stored into a
/// member, returned, or passed to a function whose may-outlive summary
/// (GlobalIndex::fn_arg_escapers) says the callable outlives the call.
void CheckDanglingCapture(const LexedFile& f, const FileModel& model,
                          const GlobalIndex& gi, std::vector<Finding>* out);

/// atomic-confinement: explicit std::memory_order_{relaxed,acquire,
/// release,acq_rel,consume} arguments outside the audited modules
/// (src/serve/latency_histogram*, src/util/thread_pool*) must carry a
/// reasoned NOLINT. Everywhere else, default seq_cst is the contract.
void CheckAtomicConfinement(const LexedFile& f, const FileModel& model,
                            std::vector<Finding>* out);

/// guard-consistency: a member field accessed under a MutexLock in at
/// least one function but bare in another function reachable from a
/// parallel context (cross-TU, via the merged field-access summaries and
/// a parallel-reachability fixpoint over the call graph).
std::vector<Finding> CheckGuardConsistency(const GlobalIndex& gi);

/// stale-nolint: audits every reason-carrying NOLINT naming an audited
/// rule (FileIndex::audited_nolints, see IsAuditedRule) against the
/// findings actually produced this run — including suppressed ones. A
/// marker that no longer suppresses anything is itself a violation.
/// `findings` must contain the pre-filter set (nolint_suppressed entries
/// included); `indexes` pairs each normalized path with its FileIndex.
std::vector<Finding> CheckStaleNolints(
    const std::vector<std::pair<std::string, const FileIndex*>>& indexes,
    const std::vector<Finding>& findings);

/// mutex-guard: a class declaring a std::mutex or scholar::Mutex member
/// annotates at least one member GUARDED_BY / PT_GUARDED_BY.
void CheckMutexGuard(const LexedFile& f, std::vector<Finding>* out);

/// float-compare: no == / != on floating-point operands (literals or
/// identifiers the file declares float/double) in src/rank/ and
/// src/ensemble/.
void CheckFloatCompare(const LexedFile& f, std::vector<Finding>* out);

/// raw-stdout: no std::cout / printf-family output in src/.
void CheckRawStdout(const LexedFile& f, std::vector<Finding>* out);

/// include-order: a .cc file's own header is its first #include.
void CheckIncludeOrder(const LexedFile& f, std::vector<Finding>* out);

/// materialize-snapshot: no ExtractSnapshot() calls outside
/// src/graph/time_slicer.{h,cc}.
void CheckMaterializeSnapshot(const LexedFile& f, std::vector<Finding>* out);

/// include-layering: a quoted #include under src/<module>/ names only a
/// strictly lower layer of util -> graph -> {data, rank} ->
/// {ensemble, eval} -> core -> stream -> serve -> cli, or its own module.
void CheckIncludeLayering(const LexedFile& f, std::vector<Finding>* out);

/// unchecked-read: no raw memcpy() / mutable reinterpret_cast in the
/// untrusted-input decoders.
void CheckUncheckedRead(const LexedFile& f, std::vector<Finding>* out);

/// raw-intrinsics: no SIMD intrinsics, vector types or *intrin.h
/// includes in src/ outside src/rank/kernel/.
void CheckRawIntrinsics(const LexedFile& f, std::vector<Finding>* out);

}  // namespace analyze

#endif  // SCHOLAR_ANALYZE_RULES_H_
