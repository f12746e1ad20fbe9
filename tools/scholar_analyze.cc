// scholar_analyze: the static analyzer for the ScholarRank codebase. It
// lexes each file once, builds a per-file scope model (function
// boundaries, class context, brace depth) plus a cross-file index, and
// runs the rules:
//
//   unchecked-status  Status/Result<T> values must be consumed; `(void)`
//                     and static_cast<void> discards are flagged too.
//   hot-loop-alloc    no allocation / container growth / string building
//                     inside ranking sweep loops (src/rank/kernel/,
//                     src/rank/*.cc);
//                     `// analyze:init-scope` exempts init-phase scopes.
//   lock-order        the cross-file mutex acquisition graph (direct
//                     MutexLock sites + transitive acquisition through
//                     calls, seeded by REQUIRES annotations) must be
//                     acyclic; cycles are reported with a witness path.
//   determinism       no unordered-container iteration in rank/ensemble/
//                     stream/serve; no time()/rand() calls or std random
//                     engines (mt19937, random_device) outside util/rng;
//                     and no clock reads (clock_gettime, gettimeofday,
//                     timerfd_*, chrono ::now(), WallTimer) in those
//                     subsystems outside src/serve/latency_histogram*.
//
// Parallel-region pack — reasons about the repo's own parallel
// primitives (ParallelFor bodies, ThreadPool::Submit/Schedule lambdas,
// std::thread constructors), interprocedurally via the merged index:
//
//   shared-mutation    by-ref captures written in a parallel body need a
//                      Mutex, a std::atomic, or a per-chunk subscript.
//   dangling-capture   by-ref-capturing lambdas must not escape their
//                      scope (Submit, std::thread, member storage,
//                      containers, return, or a callee whose may-outlive
//                      summary escapes its callable argument).
//   atomic-confinement explicit weak memory orders only in the audited
//                      modules (serve/latency_histogram*, util/
//                      thread_pool*) or under a reasoned NOLINT.
//   guard-consistency  a field guarded in one function must not be bare
//                      in code reachable from a parallel context.
//
// Token rules — project contracts the compiler cannot express:
//
//   mutex-guard          a class declaring a mutex member annotates at
//                        least one member GUARDED_BY.
//   float-compare        no == / != on floating-point values in
//                        src/rank/ and src/ensemble/.
//   raw-stdout           no std::cout / printf-family output in src/.
//   include-order        a .cc file's own header is its first #include.
//   materialize-snapshot no ExtractSnapshot() calls outside
//                        src/graph/time_slicer.
//   include-layering     #includes follow the module DAG util -> graph ->
//                        {data, rank} -> {ensemble, eval} -> core ->
//                        stream -> serve -> cli.
//   unchecked-read       no raw memcpy() / mutable reinterpret_cast in the
//                        untrusted-input decoders.
//   raw-intrinsics       SIMD intrinsics only under src/rank/kernel/.
//
//   stale-nolint         a NOLINT naming any rule above but lock-order
//                        must still suppress a live finding on its line
//                        (lock-order markers remove graph edges instead).
//
// Suppression: `// NOLINT(rule-a,rule-b): reason` leading a comment on
// the flagged line — the rule list and a non-empty reason are both
// mandatory; a bare `// NOLINT` suppresses nothing. An audit needs an
// audit record.
//
// Usage:
//   scholar_analyze [options] <file.cc|file.h>...
//     --compile-commands=FILE  add every "file" entry of a compile
//                              commands database under src/ or tools/
//     --sarif=FILE             write SARIF 2.1.0 log
//     --baseline=FILE          suppress findings listed in the baseline
//     --write-baseline=FILE    write current findings as a new baseline
//     --cache=FILE             per-file content-hash result cache
//     --jobs=N                 lex and analyze files on N threads
//                              (default 1; 0 = hardware concurrency).
//                              Output is byte-identical at any N: chunk
//                              results land in pre-sized slots and every
//                              merge walks them in sorted path order.
//
// Exit codes: 0 clean (or all findings baselined), 1 findings,
// 2 usage/IO error. Diagnostics: `file:line: rule: message`; wall-time
// breakdown goes to stderr so stdout/SARIF stay deterministic.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/core.h"
#include "analyze/index.h"
#include "analyze/model.h"
#include "analyze/output.h"
#include "analyze/rules.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace {

/// Bumping this salt invalidates every cache entry; do so whenever rule
/// behavior changes (cached findings would otherwise go stale silently).
constexpr uint64_t kAnalyzerSalt = 0x73636133u;  // "sca3"

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  *out = ss.str();
  return true;
}

/// Extracts the "file" entries from a compile_commands.json without a
/// JSON parser: scans for `"file"` keys and takes their string values.
/// Only sources under src/ or tools/ are analyzed (tests have their own
/// fixtures that deliberately violate rules).
std::vector<std::string> FilesFromCompileCommands(const std::string& text) {
  std::vector<std::string> files;
  std::set<std::string> seen;
  size_t pos = 0;
  while ((pos = text.find("\"file\"", pos)) != std::string::npos) {
    pos += 6;
    size_t colon = text.find(':', pos);
    if (colon == std::string::npos) break;
    size_t q1 = text.find('"', colon + 1);
    if (q1 == std::string::npos) break;
    size_t q2 = text.find('"', q1 + 1);
    if (q2 == std::string::npos) break;
    std::string file = text.substr(q1 + 1, q2 - q1 - 1);
    pos = q2 + 1;
    const std::string norm = analyze::NormalizePath(file);
    if (norm.compare(0, 4, "src/") != 0 && norm.compare(0, 6, "tools/") != 0) {
      continue;
    }
    if (seen.insert(norm).second) files.push_back(file);
  }
  return files;
}

struct PerFile {
  std::string path;       // as given on the command line
  std::string norm_path;
  uint64_t file_hash = 0;
  bool lexed = false;
  analyze::LexedFile lex;
  analyze::FileModel model;
  analyze::FileIndex index;
  bool findings_cached = false;
  std::vector<analyze::Finding> cached_findings;
  uint64_t cached_sig = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> inputs;
  std::string compile_commands, sarif_path, baseline_path, write_baseline_path,
      cache_path;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> std::string {
      return arg.substr(std::string(flag).size());
    };
    if (arg.rfind("--compile-commands=", 0) == 0) {
      compile_commands = value("--compile-commands=");
    } else if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = value("--sarif=");
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value("--baseline=");
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = value("--write-baseline=");
    } else if (arg.rfind("--cache=", 0) == 0) {
      cache_path = value("--cache=");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      const std::string v = value("--jobs=");
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "scholar_analyze: --jobs wants a non-negative integer\n";
        return 2;
      }
      jobs = std::atoi(v.c_str());
    } else if (arg == "-h" || arg == "--help") {
      std::cout << "usage: scholar_analyze [--compile-commands=FILE] "
                   "[--sarif=FILE] [--baseline=FILE] [--write-baseline=FILE] "
                   "[--cache=FILE] [--jobs=N] <file>...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "scholar_analyze: unknown option: " << arg << "\n";
      return 2;
    } else {
      inputs.push_back(arg);
    }
  }
  if (!compile_commands.empty()) {
    std::string text;
    if (!ReadFile(compile_commands, &text)) {
      std::cerr << "scholar_analyze: cannot read " << compile_commands << "\n";
      return 2;
    }
    for (std::string& f : FilesFromCompileCommands(text)) {
      inputs.push_back(std::move(f));
    }
  }
  if (inputs.empty()) {
    std::cerr << "scholar_analyze: no input files (see --help)\n";
    return 2;
  }

  analyze::Cache cache;
  if (!cache_path.empty()) cache.Load(cache_path);

  // Worker pool shared by both passes. The calling thread participates in
  // every ParallelForChunks, so a pool of jobs-1 helpers yields `jobs`
  // total lanes; jobs<=1 runs serial through the identical chunk geometry.
  const size_t lanes = jobs == 1 ? 1 : scholar::ResolveThreads(jobs);
  std::unique_ptr<scholar::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<scholar::ThreadPool>(lanes - 1);
  const auto t_start = std::chrono::steady_clock::now();

  // Pass 1: lex (or load from cache) and build the global index. Inputs
  // are deduplicated serially (first spelling of a normalized path wins),
  // then lexed into pre-sized slots — chunk geometry and slot order are
  // independent of the thread count, so the merge below is deterministic.
  std::vector<PerFile> files;
  {
    std::set<std::string> seen_norm;
    for (const std::string& path : inputs) {
      PerFile pf;
      pf.path = path;
      pf.norm_path = analyze::NormalizePath(path);
      if (!seen_norm.insert(pf.norm_path).second) continue;  // duplicate
      files.push_back(std::move(pf));
    }
  }
  std::vector<std::string> errors(files.size());
  scholar::ParallelForChunks(
      pool.get(), files.size(), 1,
      [&files, &errors, &cache, &cache_path](size_t, size_t begin,
                                             size_t end) {
        for (size_t i = begin; i < end; ++i) {
          PerFile& pf = files[i];
          std::string text;
          if (!ReadFile(pf.path, &text)) {
            errors[i] = "scholar_analyze: cannot read " + pf.path;
            continue;
          }
          pf.file_hash = analyze::Fnv1a(text, kAnalyzerSalt);
          const analyze::CacheEntry* hit =
              cache_path.empty() ? nullptr
                                 : cache.Lookup(pf.norm_path, pf.file_hash);
          if (hit != nullptr) {
            pf.index = hit->index;
            if (hit->has_findings) {
              pf.findings_cached = true;
              pf.cached_findings = hit->findings;
              pf.cached_sig = hit->findings_sig;
            }
          } else {
            pf.lex = analyze::Lex(pf.path, text);
            pf.model = analyze::BuildModel(pf.lex);
            pf.index = analyze::BuildFileIndex(pf.lex, pf.model);
            pf.lexed = true;
          }
        }
      });
  for (const std::string& err : errors) {
    if (!err.empty()) {
      std::cerr << err << "\n";
      return 2;
    }
  }

  std::sort(files.begin(), files.end(),
            [](const PerFile& a, const PerFile& b) {
              return a.norm_path < b.norm_path;
            });
  const auto t_pass1 = std::chrono::steady_clock::now();

  analyze::GlobalIndex gi;
  uint64_t global_sig = kAnalyzerSalt;
  for (const PerFile& pf : files) {
    gi.Merge(pf.index);
    global_sig = analyze::Fnv1a(pf.norm_path, global_sig);
    global_sig = analyze::Fnv1a(analyze::SerializeFileIndex(pf.index),
                                global_sig);
  }
  gi.Finalize();

  // Pass 2: per-file rules (cache-aware), in parallel into per-file
  // slots. Findings still include NOLINT-suppressed entries here — the
  // stale-nolint audit needs them; they are filtered before output.
  std::vector<std::vector<analyze::Finding>> slot_findings(files.size());
  std::fill(errors.begin(), errors.end(), std::string());
  scholar::ParallelForChunks(
      pool.get(), files.size(), 1,
      [&files, &errors, &slot_findings, &gi, global_sig](
          size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          PerFile& pf = files[i];
          std::vector<analyze::Finding>& file_findings = slot_findings[i];
          if (pf.findings_cached && pf.cached_sig == global_sig) {
            file_findings = pf.cached_findings;
            continue;
          }
          if (!pf.lexed) {
            // Index came from cache but findings are stale: re-lex.
            std::string text;
            if (!ReadFile(pf.path, &text)) {
              errors[i] = "scholar_analyze: cannot read " + pf.path;
              continue;
            }
            pf.lex = analyze::Lex(pf.path, text);
            pf.model = analyze::BuildModel(pf.lex);
            pf.lexed = true;
          }
          analyze::CheckUncheckedStatus(pf.lex, pf.model, gi, &file_findings);
          analyze::CheckHotLoopAlloc(pf.lex, pf.model, &file_findings);
          analyze::CheckDeterminism(pf.lex, pf.model, gi, &file_findings);
          analyze::CheckSharedMutation(pf.lex, pf.model, gi, &file_findings);
          analyze::CheckDanglingCapture(pf.lex, pf.model, gi, &file_findings);
          analyze::CheckAtomicConfinement(pf.lex, pf.model, &file_findings);
          analyze::CheckMutexGuard(pf.lex, &file_findings);
          analyze::CheckFloatCompare(pf.lex, &file_findings);
          analyze::CheckRawStdout(pf.lex, &file_findings);
          analyze::CheckIncludeOrder(pf.lex, &file_findings);
          analyze::CheckMaterializeSnapshot(pf.lex, &file_findings);
          analyze::CheckIncludeLayering(pf.lex, &file_findings);
          analyze::CheckUncheckedRead(pf.lex, &file_findings);
          analyze::CheckRawIntrinsics(pf.lex, &file_findings);
        }
      });
  for (const std::string& err : errors) {
    if (!err.empty()) {
      std::cerr << err << "\n";
      return 2;
    }
  }
  if (pool != nullptr) pool->Shutdown();

  std::vector<analyze::Finding> findings;
  for (size_t i = 0; i < files.size(); ++i) {
    const PerFile& pf = files[i];
    if (!cache_path.empty()) {
      analyze::CacheEntry entry;
      entry.file_hash = pf.file_hash;
      entry.index = pf.index;
      entry.has_findings = true;
      entry.findings_sig = global_sig;
      entry.findings = slot_findings[i];
      cache.Put(pf.norm_path, std::move(entry));
    }
    findings.insert(findings.end(), slot_findings[i].begin(),
                    slot_findings[i].end());
  }
  {
    std::vector<analyze::Finding> lock = analyze::CheckLockOrder(gi);
    findings.insert(findings.end(), lock.begin(), lock.end());
    std::vector<analyze::Finding> guard = analyze::CheckGuardConsistency(gi);
    findings.insert(findings.end(), guard.begin(), guard.end());
  }
  // Audit the suppressions against the full pre-filter finding set, then
  // drop the suppressed entries from the output.
  {
    std::vector<std::pair<std::string, const analyze::FileIndex*>> indexes;
    indexes.reserve(files.size());
    for (const PerFile& pf : files) {
      indexes.emplace_back(pf.norm_path, &pf.index);
    }
    std::vector<analyze::Finding> stale =
        analyze::CheckStaleNolints(indexes, findings);
    findings.erase(
        std::remove_if(findings.begin(), findings.end(),
                       [](const analyze::Finding& f) {
                         return f.nolint_suppressed;
                       }),
        findings.end());
    findings.insert(findings.end(), stale.begin(), stale.end());
  }
  std::sort(findings.begin(), findings.end(),
            [](const analyze::Finding& a, const analyze::Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  const auto t_pass2 = std::chrono::steady_clock::now();
  {
    auto ms = [](std::chrono::steady_clock::duration d) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(d).count();
    };
    std::cerr << "scholar_analyze: timing jobs=" << lanes << " pass1="
              << ms(t_pass1 - t_start) << "ms pass2="
              << ms(t_pass2 - t_pass1) << "ms total="
              << ms(t_pass2 - t_start) << "ms\n";
  }

  if (!cache_path.empty() && !cache.Save(cache_path)) {
    std::cerr << "scholar_analyze: cannot write cache " << cache_path << "\n";
    return 2;
  }

  if (!write_baseline_path.empty()) {
    if (!analyze::Baseline::Write(write_baseline_path, findings)) {
      std::cerr << "scholar_analyze: cannot write baseline "
                << write_baseline_path << "\n";
      return 2;
    }
    std::cout << "scholar_analyze: wrote " << findings.size()
              << " finding(s) to " << write_baseline_path << "\n";
    return 0;
  }

  size_t baselined = 0;
  if (!baseline_path.empty()) {
    analyze::Baseline baseline;
    if (!baseline.Load(baseline_path)) {
      std::cerr << "scholar_analyze: malformed baseline " << baseline_path
                << "\n";
      return 2;
    }
    baselined = baseline.Apply(&findings);
  }

  if (!sarif_path.empty() && !analyze::WriteSarif(sarif_path, findings)) {
    std::cerr << "scholar_analyze: cannot write SARIF " << sarif_path << "\n";
    return 2;
  }

  size_t active = 0;
  for (const analyze::Finding& f : findings) {
    if (f.baseline_suppressed) continue;
    ++active;
    std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
              << f.message << "\n";
  }
  std::cout << "scholar_analyze: " << files.size() << " file(s), " << active
            << " finding(s)";
  if (baselined > 0) std::cout << " (" << baselined << " baselined)";
  std::cout << "\n";
  return active > 0 ? 1 : 0;
}
