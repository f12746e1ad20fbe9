// Drives the scholar_analyze binary against the committed fixture
// snippets in tests/analyze_fixtures/, proving each rule fires on a
// violation and stays quiet on compliant code and reasoned NOLINTs, and
// exercising the SARIF / baseline / cache surfaces end to end. The
// fixture tree mirrors src/ paths because most rules are path-scoped
// (hot-loop-alloc to the ranking hot path, determinism to
// rank/ensemble/stream/serve, float-compare to rank/ensemble, raw-stdout
// to src/, ...).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

#ifndef SCHOLAR_ANALYZE_BIN
#error "SCHOLAR_ANALYZE_BIN must point at the scholar_analyze executable"
#endif
#ifndef SCHOLAR_ANALYZE_FIXTURES
#error "SCHOLAR_ANALYZE_FIXTURES must point at tests/analyze_fixtures"
#endif

struct AnalyzeRun {
  int exit_code;
  std::string output;
};

std::string Fixture(const std::string& rel) {
  return std::string(SCHOLAR_ANALYZE_FIXTURES) + "/" + rel;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "scholar_analyze_test_" + name;
}

/// Runs the analyzer with raw arguments, capturing stdout+stderr.
AnalyzeRun RunAnalyzeArgs(const std::vector<std::string>& args) {
  std::string cmd = std::string(SCHOLAR_ANALYZE_BIN);
  for (const std::string& a : args) cmd += " " + a;
  cmd += " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  AnalyzeRun run{-1, {}};
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// The analyzer's output without its `scholar_analyze: timing ...` stderr
/// line, whose wall-clock figures differ from run to run. Every finding is
/// kept byte for byte.
std::string WithoutTiming(const std::string& output) {
  std::string cleaned;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("scholar_analyze: timing ") == std::string::npos) {
      cleaned += line + "\n";
    }
  }
  return cleaned;
}

AnalyzeRun RunAnalyze(const std::vector<std::string>& fixtures) {
  std::vector<std::string> args;
  for (const std::string& f : fixtures) args.push_back(Fixture(f));
  return RunAnalyzeArgs(args);
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

std::string ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(is)) << "cannot read " << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Every quoted value following `key` (e.g. `"ruleId": "`) in `text`.
std::set<std::string> ValuesAfter(const std::string& text,
                                  const std::string& key) {
  std::set<std::string> values;
  for (size_t pos = text.find(key); pos != std::string::npos;
       pos = text.find(key, pos + key.size())) {
    const size_t begin = pos + key.size();
    values.insert(text.substr(begin, text.find('"', begin) - begin));
  }
  return values;
}

/// Minimal JSON well-formedness check: every string literal closes on its
/// line of sight (escapes honored), and braces/brackets balance outside
/// strings and never go negative. Catches the classes of breakage a
/// hand-rolled serializer can produce (unescaped quote, missing brace)
/// without needing a JSON library.
bool JsonIsBalanced(const std::string& text) {
  int brace = 0;
  int bracket = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      } else if (c == '\n') {
        return false;  // raw newline inside a string literal
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++brace; break;
      case '}': if (--brace < 0) return false; break;
      case '[': ++bracket; break;
      case ']': if (--bracket < 0) return false; break;
      default: break;
    }
  }
  return !in_string && brace == 0 && bracket == 0;
}

// ---------------------------------------------------------------------------
// unchecked-status
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, UncheckedStatusFiresOnDroppedAndCastValues) {
  AnalyzeRun run = RunAnalyze({"src/data/status_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "unchecked-status:"), 4u)
      << run.output;
  // Both discard shapes are diagnosed distinctly.
  EXPECT_EQ(CountOccurrences(run.output, "discarded with a void cast"), 2u)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "is ignored"), 2u) << run.output;
  // Result<T> and Status callees are both resolved.
  EXPECT_NE(run.output.find("'ParseCount' returns Result"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'Flush' (Status)"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, UncheckedStatusQuietOnConsumedValues) {
  AnalyzeRun run = RunAnalyze({"src/data/status_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "unchecked-status:"), 0u)
      << run.output;
}

// ---------------------------------------------------------------------------
// hot-loop-alloc
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, HotLoopAllocFiresInsideKernelLoops) {
  AnalyzeRun run = RunAnalyze({"src/rank/kernel/alloc_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "hot-loop-alloc:"), 4u)
      << run.output;
  EXPECT_NE(run.output.find("'new' inside a hot-path loop"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'malloc' inside a hot-path loop"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("container 'push_back'"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'to_string' builds a heap string"),
            std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, HotLoopAllocQuietOnInitScopeAndColdPaths) {
  // A marked function, a marked loop, out-of-loop growth, and return/throw
  // statements: none may fire.
  AnalyzeRun run = RunAnalyze({"src/rank/kernel/alloc_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "hot-loop-alloc:"), 0u)
      << run.output;
}

TEST(ScholarAnalyzeTest, HotLoopAllocScopedToHotPaths) {
  // The same per-iteration push_back/to_string, under src/eval/: clean.
  AnalyzeRun run = RunAnalyze({"src/eval/alloc_ok_outside_hot_path.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, DeterminismFiresOnUnorderedIterationAndWallClock) {
  AnalyzeRun run = RunAnalyze({"src/ensemble/det_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 3u) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "unordered container 'weights_'"),
            2u)
      << run.output;
  EXPECT_NE(run.output.find("'time' is wall-clock/PRNG state"),
            std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, DeterminismQuietOnOrderedAndAuditedIteration) {
  AnalyzeRun run = RunAnalyze({"src/ensemble/det_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 0u) << run.output;
}

TEST(ScholarAnalyzeTest, DeterminismFiresOnClockReadsInServingTier) {
  // Sub-check (c): posix clock calls and chrono ::now() inside
  // rank/ensemble/stream/serve are findings.
  AnalyzeRun run = RunAnalyze({"src/serve/wallclock_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 4u) << run.output;
  EXPECT_NE(run.output.find("'clock_gettime' reads the clock"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'gettimeofday' reads the clock"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'timerfd_create' reads the clock"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'steady_clock::now()' reads the clock"),
            std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, DeterminismExemptsLatencyHistogramModule) {
  // The src/serve/latency_histogram* prefix is the one sanctioned clock
  // reader: duration measurement never feeds back into results.
  AnalyzeRun run = RunAnalyze({"src/serve/latency_histogram_fixture.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 0u) << run.output;
}

TEST(ScholarAnalyzeTest, DeterminismFiresOnAdHocRandomness) {
  // srand, std::mt19937, std::random_device, rand: each site reports once.
  AnalyzeRun run = RunAnalyze({"src/util/bad_rng.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 4u) << run.output;
  EXPECT_NE(run.output.find("'mt19937' is wall-clock/PRNG state"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'random_device' is wall-clock/PRNG state"),
            std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, DeterminismFiresOnWallTimerInStream) {
  // WallTimer reads steady_clock behind a Clock alias; building one in an
  // order-sensitive subsystem is a clock read like ::now().
  AnalyzeRun run = RunAnalyze({"src/stream/wall_timer_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 2u) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "'WallTimer' reads the clock"), 2u)
      << run.output;
  EXPECT_NE(run.output.find("wall_timer_fire.cc:13:"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, DeterminismQuietOnInjectedDurationsAndAuditedTimer) {
  // A duration taken as input, and a WallTimer under a live reasoned
  // NOLINT(determinism): no finding, and the marker is not stale.
  AnalyzeRun run = RunAnalyze({"src/stream/wall_timer_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// NOLINT dialect
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, NolintWithoutReasonDoesNotSuppress) {
  // The analyzer's suppression contract requires a ": reason" tail; a bare
  // NOLINT(determinism) is not an audit record and must not suppress.
  AnalyzeRun run = RunAnalyze({"src/ensemble/nolint_no_reason.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 1u) << run.output;
}

TEST(ScholarAnalyzeTest, BareNolintDoesNotSuppress) {
  // A bare `// NOLINT` names no rule and gives no reason: it suppresses
  // nothing, and names nothing the stale audit could hold it to.
  AnalyzeRun run = RunAnalyze({"src/serve/nolint_bare.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "raw-stdout:"), 1u) << run.output;
  EXPECT_NE(run.output.find("nolint_bare.cc:8:"), std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "stale-nolint:"), 0u) << run.output;
}

TEST(ScholarAnalyzeTest, NolintWithWrongRuleDoesNotSuppress) {
  AnalyzeRun run = RunAnalyze({"src/serve/nolint_mismatch.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "raw-stdout:"), 1u) << run.output;
  // The wrong-rule marker also suppresses nothing, so it is itself stale.
  EXPECT_EQ(CountOccurrences(run.output, "stale-nolint:"), 1u) << run.output;
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, LockOrderDetectsTwoMutexCycle) {
  AnalyzeRun run = RunAnalyze({"src/serve/lock_cycle2.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "lock-order cycle:"), 1u)
      << run.output;
  // Mutex nodes are class-qualified and the witness names both functions.
  EXPECT_NE(run.output.find("'PairState::alpha_' -> 'PairState::beta_'"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("PairState::Retire"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, LockOrderDetectsThreeMutexCycleThroughCall) {
  // One edge of the triangle only exists through the may-acquire fixpoint:
  // RotateC holds c_ and calls AcquireRoot, which locks a_.
  AnalyzeRun run = RunAnalyze({"src/serve/lock_cycle3.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "lock-order cycle:"), 1u)
      << run.output;
  EXPECT_NE(run.output.find("'TriadState::b_' -> 'TriadState::c_'"),
            std::string::npos)
      << run.output;
  EXPECT_NE(
      run.output.find("calls 'AcquireRoot' which may acquire 'TriadState::a_'"),
      std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, LockOrderReportsSelfDeadlock) {
  AnalyzeRun run = RunAnalyze({"src/serve/lock_self.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "self-deadlock:"), 1u)
      << run.output;
  EXPECT_NE(run.output.find("'Reentrant::mu_'"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, LockOrderQuietOnConsistentOrder) {
  AnalyzeRun run = RunAnalyze({"src/serve/lock_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "lock-order"), 0u) << run.output;
}

TEST(ScholarAnalyzeTest, LockOrderNolintRemovesEdge) {
  // Identical inversion to lock_cycle2.cc, but the inverted acquisition
  // carries a reason-bearing NOLINT(lock-order): no cycle may be reported.
  AnalyzeRun run = RunAnalyze({"src/serve/lock_nolint.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, LockOrderSeesCrossFixtureGraphInOneRun) {
  // Whole-program rule: feeding both cycle fixtures together reports both
  // cycles in one run.
  AnalyzeRun run =
      RunAnalyze({"src/serve/lock_cycle2.cc", "src/serve/lock_cycle3.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "lock-order cycle:"), 2u)
      << run.output;
}

// ---------------------------------------------------------------------------
// SARIF / baseline / cache surfaces
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, SarifOutputIsWellFormedAndCarriesFindings) {
  const std::string sarif = TempPath("out.sarif");
  AnalyzeRun run = RunAnalyzeArgs(
      {"--sarif=" + sarif, Fixture("src/rank/kernel/alloc_fire.cc"),
       Fixture("src/serve/lock_cycle2.cc")});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string text = ReadAll(sarif);
  EXPECT_TRUE(JsonIsBalanced(text)) << text;
  EXPECT_NE(text.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"scholar_analyze\""), std::string::npos);
  // One result per finding: 4 hot-loop-alloc + 1 lock-order cycle.
  EXPECT_EQ(CountOccurrences(text, "\"ruleId\""), 5u) << text;
  EXPECT_EQ(CountOccurrences(text, "scholarLineHash/v1"), 5u) << text;
  EXPECT_NE(text.find("src/rank/kernel/alloc_fire.cc"), std::string::npos);
  std::remove(sarif.c_str());
}

TEST(ScholarAnalyzeTest, BaselineRoundTripSuppressesKnownFindings) {
  const std::string baseline = TempPath("baseline.txt");
  AnalyzeRun write = RunAnalyzeArgs({"--write-baseline=" + baseline,
                                     Fixture("src/ensemble/det_fire.cc")});
  EXPECT_EQ(write.exit_code, 0) << write.output;
  EXPECT_NE(write.output.find("wrote 3 finding(s)"), std::string::npos)
      << write.output;

  AnalyzeRun gated = RunAnalyzeArgs(
      {"--baseline=" + baseline, Fixture("src/ensemble/det_fire.cc")});
  EXPECT_EQ(gated.exit_code, 0) << gated.output;
  EXPECT_NE(gated.output.find("0 finding(s) (3 baselined)"),
            std::string::npos)
      << gated.output;

  // A finding not in the baseline still fails the gate.
  AnalyzeRun mixed = RunAnalyzeArgs({"--baseline=" + baseline,
                                     Fixture("src/ensemble/det_fire.cc"),
                                     Fixture("src/serve/lock_self.cc")});
  EXPECT_EQ(mixed.exit_code, 1) << mixed.output;
  EXPECT_EQ(CountOccurrences(mixed.output, "self-deadlock:"), 1u)
      << mixed.output;
  std::remove(baseline.c_str());
}

TEST(ScholarAnalyzeTest, BaselinedFindingsAreMarkedSuppressedInSarif) {
  const std::string baseline = TempPath("sup_baseline.txt");
  const std::string sarif = TempPath("sup.sarif");
  AnalyzeRun write = RunAnalyzeArgs({"--write-baseline=" + baseline,
                                     Fixture("src/serve/lock_self.cc")});
  EXPECT_EQ(write.exit_code, 0) << write.output;
  AnalyzeRun gated =
      RunAnalyzeArgs({"--baseline=" + baseline, "--sarif=" + sarif,
                      Fixture("src/serve/lock_self.cc")});
  EXPECT_EQ(gated.exit_code, 0) << gated.output;
  const std::string text = ReadAll(sarif);
  EXPECT_TRUE(JsonIsBalanced(text)) << text;
  EXPECT_EQ(CountOccurrences(text, "\"suppressions\""), 1u) << text;
  EXPECT_NE(text.find("\"kind\": \"external\""), std::string::npos) << text;
  std::remove(baseline.c_str());
  std::remove(sarif.c_str());
}

TEST(ScholarAnalyzeTest, CacheRoundTripIsFindingStable) {
  const std::string cache = TempPath("cache.bin");
  std::remove(cache.c_str());
  const std::vector<std::string> args = {
      "--cache=" + cache, Fixture("src/rank/kernel/alloc_fire.cc"),
      Fixture("src/serve/lock_cycle3.cc"), Fixture("src/data/status_fire.cc")};
  AnalyzeRun cold = RunAnalyzeArgs(args);
  EXPECT_EQ(cold.exit_code, 1) << cold.output;
  AnalyzeRun warm = RunAnalyzeArgs(args);
  EXPECT_EQ(warm.exit_code, 1) << warm.output;
  // Bit-identical diagnostics whether findings come from rules or cache.
  EXPECT_EQ(WithoutTiming(cold.output), WithoutTiming(warm.output));
  std::remove(cache.c_str());
}

// ---------------------------------------------------------------------------
// shared-mutation
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, SharedMutationFiresInParallelBodies) {
  AnalyzeRun run = RunAnalyze({"src/rank/shared_mutation_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "shared-mutation:"), 4u)
      << run.output;
  // All three write shapes are diagnosed distinctly.
  EXPECT_NE(run.output.find("'total' is captured by reference and updated"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'hits' is captured by reference and incremented"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("'peak' is captured by reference and assigned"),
            std::string::npos)
      << run.output;
  // ParallelForChunks bodies are parallel regions too.
  EXPECT_NE(run.output.find("shared_mutation_fire.cc:41"), std::string::npos)
      << run.output;
  // The per-chunk `out[i] = carry` store must not be among the findings.
  EXPECT_EQ(CountOccurrences(run.output, "'out'"), 0u) << run.output;
  // Blocking primitives never count as lambda escape routes.
  EXPECT_EQ(CountOccurrences(run.output, "dangling-capture:"), 0u)
      << run.output;
}

TEST(ScholarAnalyzeTest, SharedMutationQuietOnSanctionedShapes) {
  // Per-chunk subscript, body-local, std::atomic, MutexLock scope: none
  // may fire.
  AnalyzeRun run = RunAnalyze({"src/rank/shared_mutation_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "shared-mutation:"), 0u)
      << run.output;
}

// ---------------------------------------------------------------------------
// dangling-capture
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, DanglingCaptureFiresOnEveryEscapeRoute) {
  AnalyzeRun run = RunAnalyze({"src/serve/dangling_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "dangling-capture:"), 4u)
      << run.output;
  EXPECT_NE(run.output.find("escapes via ThreadPool::Submit/Schedule"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("escapes via std::thread"), std::string::npos)
      << run.output;
  // The named-lambda walk names both the variable and its member sink.
  EXPECT_NE(run.output.find(
                "lambda 'task' (defined at line 39, captures &budget) "
                "escapes its scope via member 'hook_'"),
            std::string::npos)
      << run.output;
  // Interprocedural: RunLater is dangerous only because the may-outlive
  // summary sees it forward its callable argument to Submit.
  EXPECT_NE(run.output.find(
                "'RunLater' (its callable argument outlives the call)"),
            std::string::npos)
      << run.output;
  // Read-only bodies: the race rule stays quiet.
  EXPECT_EQ(CountOccurrences(run.output, "shared-mutation:"), 0u)
      << run.output;
}

TEST(ScholarAnalyzeTest, DanglingCaptureQuietOnValueBlockingAndInlineUse) {
  AnalyzeRun run = RunAnalyze({"src/serve/dangling_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "dangling-capture:"), 0u)
      << run.output;
}

// ---------------------------------------------------------------------------
// atomic-confinement
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, AtomicConfinementFiresOutsideAuditedModules) {
  AnalyzeRun run = RunAnalyze({"src/rank/atomic_order_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "atomic-confinement:"), 3u)
      << run.output;
  EXPECT_NE(run.output.find("'memory_order_relaxed'"), std::string::npos)
      << run.output;
  // The C++20 scoped spelling is recognized too.
  EXPECT_NE(run.output.find("'memory_order::release'"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, AtomicConfinementExemptsAuditedModules) {
  // Identical weak orders under src/serve/latency_histogram*: clean.
  AnalyzeRun run = RunAnalyze({"src/serve/latency_histogram_orders.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "atomic-confinement:"), 0u)
      << run.output;
}

TEST(ScholarAnalyzeTest, AtomicConfinementReasonedNolintSuppresses) {
  // A reason-bearing NOLINT(atomic-confinement) is the per-site audit
  // trail — and because it covers a live finding, the stale-nolint audit
  // must stay quiet as well.
  AnalyzeRun run = RunAnalyze({"src/stream/atomic_nolint_live.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "atomic-confinement:"), 0u)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "stale-nolint:"), 0u) << run.output;
}

// ---------------------------------------------------------------------------
// guard-consistency
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, GuardConsistencyFiresAcrossFunctions) {
  AnalyzeRun run = RunAnalyze({"src/serve/guard_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "guard-consistency:"), 1u)
      << run.output;
  // The finding lands on the bare read and cites the guarded witness.
  EXPECT_NE(run.output.find("guard_fire.cc:24"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("field 'Ledger::balance_' is accessed under a "
                            "mutex in Ledger::Credit"),
            std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, GuardConsistencySeesAcrossTranslationUnits) {
  // The guarded witness and the bare access live in different files;
  // only a run over both can connect them.
  AnalyzeRun both =
      RunAnalyze({"src/serve/guard_tu_a.cc", "src/serve/guard_tu_b.cc"});
  EXPECT_EQ(both.exit_code, 1) << both.output;
  EXPECT_EQ(CountOccurrences(both.output, "guard-consistency:"), 1u)
      << both.output;
  EXPECT_NE(both.output.find("guard_tu_b.cc:16"), std::string::npos)
      << both.output;
  EXPECT_NE(both.output.find("Gauge::Set (src/serve/guard_tu_a.cc:23)"),
            std::string::npos)
      << both.output;

  // The bare half alone has no guarded witness: clean.
  AnalyzeRun alone = RunAnalyze({"src/serve/guard_tu_b.cc"});
  EXPECT_EQ(alone.exit_code, 0) << alone.output;
}

TEST(ScholarAnalyzeTest, GuardConsistencyQuietOnConsistentDiscipline) {
  AnalyzeRun run = RunAnalyze({"src/serve/guard_clean.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "guard-consistency:"), 0u)
      << run.output;
}

// ---------------------------------------------------------------------------
// stale-nolint
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, StaleNolintFiresWhenSuppressionGoesDead) {
  // A reasoned parallel-pack NOLINT whose line produces no such finding
  // is itself a finding: the audited risk is gone.
  AnalyzeRun run = RunAnalyze({"src/stream/stale_nolint_fire.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "stale-nolint:"), 1u) << run.output;
  EXPECT_NE(run.output.find(
                "NOLINT(shared-mutation) here no longer suppresses"),
            std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, StaleNolintAuditsEveryLineSuppressingRule) {
  // Dead NOLINT(raw-stdout) and NOLINT(determinism) markers both fire; the
  // live NOLINT(determinism) stays quiet, and so does a lock-order marker,
  // which removes graph edges rather than suppressing a finding.
  AnalyzeRun run = RunAnalyze({"src/serve/stale_nolint.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "stale-nolint:"), 2u) << run.output;
  EXPECT_NE(run.output.find("stale_nolint.cc:15: stale-nolint: "
                            "NOLINT(raw-stdout) here no longer suppresses"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("stale_nolint.cc:18: stale-nolint: "
                            "NOLINT(determinism) here no longer suppresses"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "determinism:"), 0u) << run.output;
  EXPECT_EQ(run.output.find("NOLINT(lock-order)"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, StaleNolintQuietWhenEveryMarkerIsLive) {
  // All-live suppression fixtures must stay clean under the audit.
  AnalyzeRun run = RunAnalyze({"src/serve/nolint_suppressed.cc",
                               "src/rank/nolint_intrinsics.cc",
                               "src/serve/nolint_layering.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, StaleNolintSurvivesWarmCache) {
  // The audit must reach the same verdicts when nolint markers and
  // suppressed findings are replayed from the cache instead of re-lexed.
  const std::string cache = TempPath("stale_cache.bin");
  std::remove(cache.c_str());
  const std::vector<std::string> args = {
      "--cache=" + cache, Fixture("src/stream/stale_nolint_fire.cc"),
      Fixture("src/stream/atomic_nolint_live.cc")};
  AnalyzeRun cold = RunAnalyzeArgs(args);
  EXPECT_EQ(cold.exit_code, 1) << cold.output;
  EXPECT_EQ(CountOccurrences(cold.output, "stale-nolint:"), 1u)
      << cold.output;
  AnalyzeRun warm = RunAnalyzeArgs(args);
  EXPECT_EQ(warm.exit_code, 1) << warm.output;
  EXPECT_EQ(WithoutTiming(cold.output), WithoutTiming(warm.output));
  std::remove(cache.c_str());
}

TEST(ScholarAnalyzeTest, SarifCarriesParallelPackMetadata) {
  const std::string sarif = TempPath("parallel_pack.sarif");
  AnalyzeRun run = RunAnalyzeArgs(
      {"--sarif=" + sarif, Fixture("src/rank/shared_mutation_fire.cc"),
       Fixture("src/serve/dangling_fire.cc"),
       Fixture("src/rank/atomic_order_fire.cc"),
       Fixture("src/serve/guard_fire.cc")});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string text = ReadAll(sarif);
  EXPECT_TRUE(JsonIsBalanced(text)) << text;
  // Driver metadata describes every parallel-pack rule.
  for (const char* id : {"shared-mutation", "dangling-capture",
                         "atomic-confinement", "guard-consistency",
                         "stale-nolint"}) {
    EXPECT_NE(text.find("{\"id\": \"" + std::string(id) + "\""),
              std::string::npos)
        << "missing rule metadata for " << id;
  }
  // One result per finding: 4 shared-mutation + 4 dangling-capture +
  // 3 atomic-confinement + 1 guard-consistency.
  EXPECT_EQ(CountOccurrences(text, "\"ruleId\""), 12u) << text;
  EXPECT_EQ(CountOccurrences(text, "scholarLineHash/v1"), 12u) << text;
  std::remove(sarif.c_str());
}

// ---------------------------------------------------------------------------
// mutex-guard
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, MutexGuardFiresOnNakedMutexMembers) {
  AnalyzeRun run = RunAnalyze({"src/serve/bad_mutex_member.h"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // One diagnosis for the std::mutex member, one for the scholar::Mutex.
  EXPECT_EQ(CountOccurrences(run.output, "mutex-guard:"), 2u) << run.output;
}

TEST(ScholarAnalyzeTest, MutexGuardQuietOnAnnotatedClasses) {
  AnalyzeRun run = RunAnalyze({"src/serve/good_mutex_member.h"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// float-compare
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, FloatCompareFiresOnEveryViolation) {
  AnalyzeRun run = RunAnalyze({"src/rank/bad_float_compare.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "float-compare:"), 3u) << run.output;
  EXPECT_NE(run.output.find("bad_float_compare.cc:8:"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, FloatCompareQuietOnToleranceAndNolint) {
  AnalyzeRun run = RunAnalyze({"src/rank/good_float_compare.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// raw-stdout
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, RawStdoutFiresInLibraryCode) {
  AnalyzeRun run = RunAnalyze({"src/core/bad_stdout.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "raw-stdout:"), 2u) << run.output;
}

// ---------------------------------------------------------------------------
// include-order
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, IncludeOrderFiresWhenOwnHeaderIsNotFirst) {
  AnalyzeRun run = RunAnalyze({"src/graph/bad_include_order.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "include-order:"), 1u) << run.output;
}

TEST(ScholarAnalyzeTest, IncludeOrderQuietWhenOwnHeaderIsFirst) {
  AnalyzeRun run = RunAnalyze({"src/graph/good_include_order.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// materialize-snapshot
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, MaterializeSnapshotFiresOutsideTimeSlicer) {
  AnalyzeRun run = RunAnalyze({"src/ensemble/bad_materialize.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "materialize-snapshot:"), 2u)
      << run.output;
}

TEST(ScholarAnalyzeTest, MaterializeSnapshotQuietOnNolintAndNonCalls) {
  AnalyzeRun run = RunAnalyze({"src/ensemble/good_materialize.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, MaterializeSnapshotQuietInsideTimeSlicer) {
  AnalyzeRun run = RunAnalyze({"src/graph/time_slicer.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// include-layering
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, IncludeLayeringFiresOnInvertedServeToCliEdge) {
  AnalyzeRun run = RunAnalyze({"src/serve/bad_layering.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The downward includes (util, graph, core) are legal; only the
  // serve -> cli back-edge fires.
  EXPECT_EQ(CountOccurrences(run.output, "include-layering:"), 1u)
      << run.output;
  EXPECT_NE(run.output.find("cli/commands.h"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("bad_layering.cc:10:"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, IncludeLayeringFiresOnStreamToServeAndCliEdges) {
  AnalyzeRun run = RunAnalyze({"src/stream/bad_layering.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // util/graph/rank/core point down and are legal; the serve and cli
  // includes are the two back-edges out of the stream layer.
  EXPECT_EQ(CountOccurrences(run.output, "include-layering:"), 2u)
      << run.output;
  EXPECT_NE(run.output.find("serve/snapshot_manager.h"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("cli/commands.h"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, IncludeLayeringQuietOnStreamDownwardIncludes) {
  AnalyzeRun run = RunAnalyze({"src/stream/good_layering.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, IncludeLayeringQuietOnServeConsumingStream) {
  AnalyzeRun run = RunAnalyze({"src/serve/good_stream_include.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, IncludeLayeringSuppressedByNolintOnIncludeLine) {
  AnalyzeRun run = RunAnalyze({"src/serve/nolint_layering.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// unchecked-read
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, UncheckedReadFiresOnMemcpyAndMutableCast) {
  AnalyzeRun run = RunAnalyze({"src/graph/graph_io_bad_read.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountOccurrences(run.output, "unchecked-read:"), 2u)
      << run.output;
  EXPECT_NE(run.output.find("memcpy"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("reinterpret_cast"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, UncheckedReadQuietOnConstCastAndNolint) {
  AnalyzeRun run = RunAnalyze({"src/graph/graph_io_good_read.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, UncheckedReadScopedToParserFiles) {
  // The same raw memcpy that fires in graph_io is fine between trusted
  // in-memory buffers in rank/.
  AnalyzeRun run = RunAnalyze({"src/rank/raw_copy_ok.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// raw-intrinsics
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, RawIntrinsicsFiresOutsideKernelDir) {
  AnalyzeRun run = RunAnalyze({"src/rank/bad_intrinsics.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The <immintrin.h> include, the __m256d type, and the two _mm256_*
  // calls each fire.
  EXPECT_EQ(CountOccurrences(run.output, "raw-intrinsics:"), 4u)
      << run.output;
  EXPECT_NE(run.output.find("immintrin.h"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("__m256d"), std::string::npos) << run.output;
}

TEST(ScholarAnalyzeTest, RawIntrinsicsQuietInsideKernelDir) {
  AnalyzeRun run = RunAnalyze({"src/rank/kernel/good_intrinsics.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(ScholarAnalyzeTest, RawIntrinsicsSuppressedByNolint) {
  AnalyzeRun run = RunAnalyze({"src/rank/nolint_intrinsics.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

// ---------------------------------------------------------------------------
// Multi-file runs and the rule catalog
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, MultiFileRunIsNonzeroIfAnyFileViolates) {
  AnalyzeRun run = RunAnalyze({"src/graph/good_include_order.cc",
                               "src/core/bad_stdout.cc",
                               "src/rank/good_float_compare.cc"});
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Only the bad file contributes diagnostics.
  EXPECT_EQ(CountOccurrences(run.output, "bad_stdout.cc:"), 2u) << run.output;
  EXPECT_EQ(run.output.find("good_"), std::string::npos) << run.output;
}

TEST(ScholarAnalyzeTest, AllGoodFilesExitZero) {
  AnalyzeRun run = RunAnalyze({"src/graph/good_include_order.cc",
                               "src/serve/good_mutex_member.h",
                               "src/rank/good_float_compare.cc"});
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("3 file(s), 0 finding(s)"), std::string::npos)
      << run.output;
}

TEST(ScholarAnalyzeTest, EveryCatalogRuleFiresOnSomeFixture) {
  // A rule that silently stops firing keeps every clean fixture green.
  // Over the whole fixture tree, each rule the SARIF driver advertises
  // must produce at least one result.
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           SCHOLAR_ANALYZE_FIXTURES)) {
    if (entry.is_regular_file()) files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  const std::string sarif = TempPath("catalog.sarif");
  std::vector<std::string> args = {"--sarif=" + sarif};
  args.insert(args.end(), files.begin(), files.end());
  AnalyzeRun run = RunAnalyzeArgs(args);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  const std::string text = ReadAll(sarif);
  EXPECT_TRUE(JsonIsBalanced(text)) << text;
  const size_t results_at = text.find("\"results\"");
  ASSERT_NE(results_at, std::string::npos) << text;
  const std::set<std::string> catalog =
      ValuesAfter(text.substr(0, results_at), "{\"id\": \"");
  const std::set<std::string> fired =
      ValuesAfter(text.substr(results_at), "\"ruleId\": \"");
  EXPECT_EQ(catalog.size(), 17u) << text.substr(0, results_at);
  for (const std::string& id : catalog) {
    EXPECT_EQ(fired.count(id), 1u) << "rule '" << id
                                   << "' fires on no fixture";
  }
  // Nothing fires that the catalog does not describe.
  for (const std::string& id : fired) {
    EXPECT_EQ(catalog.count(id), 1u) << "rule '" << id
                                     << "' missing from driver.rules";
  }
  std::remove(sarif.c_str());
}

// ---------------------------------------------------------------------------
// --jobs determinism
// ---------------------------------------------------------------------------

TEST(ScholarAnalyzeTest, JobsProduceByteIdenticalOutput) {
  // The contract behind running the analyzer under ThreadPool: stdout and
  // SARIF bytes are a pure function of the inputs, independent of the
  // worker count and of whether findings come from rules or cache.
  std::vector<std::string> targets = {
      Fixture("src/rank/shared_mutation_fire.cc"),
      Fixture("src/serve/dangling_fire.cc"),
      Fixture("src/rank/atomic_order_fire.cc"),
      Fixture("src/serve/guard_tu_a.cc"),
      Fixture("src/serve/guard_tu_b.cc"),
      Fixture("src/stream/stale_nolint_fire.cc"),
      Fixture("src/stream/atomic_nolint_live.cc"),
      Fixture("src/ensemble/det_fire.cc"),
      Fixture("src/serve/lock_cycle2.cc")};

  std::string serial_sarif;
  std::string serial_stdout;
  for (const char* jobs : {"1", "2", "8"}) {
    const std::string sarif = TempPath(std::string("jobs_") + jobs + ".sarif");
    std::vector<std::string> args = {std::string("--jobs=") + jobs,
                                     "--sarif=" + sarif};
    args.insert(args.end(), targets.begin(), targets.end());
    AnalyzeRun run = RunAnalyzeArgs(args);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    const std::string cleaned = WithoutTiming(run.output);
    const std::string text = ReadAll(sarif);
    if (serial_sarif.empty()) {
      serial_sarif = text;
      serial_stdout = cleaned;
    } else {
      EXPECT_EQ(text, serial_sarif) << "--jobs=" << jobs;
      EXPECT_EQ(cleaned, serial_stdout) << "--jobs=" << jobs;
    }
    std::remove(sarif.c_str());
  }

  // Warm cache, parallel run: still the same bytes.
  const std::string cache = TempPath("jobs_cache.bin");
  std::remove(cache.c_str());
  for (int pass = 0; pass < 2; ++pass) {
    const std::string sarif = TempPath("jobs_warm.sarif");
    std::vector<std::string> args = {"--jobs=8", "--cache=" + cache,
                                     "--sarif=" + sarif};
    args.insert(args.end(), targets.begin(), targets.end());
    AnalyzeRun run = RunAnalyzeArgs(args);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_EQ(ReadAll(sarif), serial_sarif) << "cache pass " << pass;
    std::remove(sarif.c_str());
  }
  std::remove(cache.c_str());
}

TEST(ScholarAnalyzeTest, MalformedJobsValueExitsWithUsageError) {
  AnalyzeRun run =
      RunAnalyzeArgs({"--jobs=two", Fixture("src/data/status_clean.cc")});
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(ScholarAnalyzeTest, MissingFileExitsWithUsageError) {
  AnalyzeRun run = RunAnalyze({"src/does_not_exist.cc"});
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(ScholarAnalyzeTest, UnknownFlagExitsWithUsageError) {
  AnalyzeRun run = RunAnalyzeArgs({"--frobnicate", Fixture("src/data/status_clean.cc")});
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
