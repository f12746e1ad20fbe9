#!/usr/bin/env bash
# check_analysis.sh — the repo's CI story until hosted CI exists.
#
# Configures, builds, and tests every analysis flavor into its own build
# directory, then prints a pass/fail matrix:
#
#   plain   default RelWithDebInfo build, full ctest suite (incl. the
#           scholar_analyze_repo pass and the analysis-labeled tests)
#   asan    AddressSanitizer
#   tsan    ThreadSanitizer (concurrency suites are the point)
#   ubsan   UndefinedBehaviorSanitizer, -fno-sanitize-recover=all
#   tsa     clang -Wthread-safety -Werror compile gate (build only; skipped
#           with a note when no clang is on PATH, since the annotations are
#           no-ops elsewhere)
#   fuzz    opt-in via --fuzz[=seconds]: clang libFuzzer+ASan+UBSan run of
#           every harness in fuzz/, each budgeted to the given wall-clock
#           seconds (default 30) on top of the checked-in corpora. A new
#           crasher fails the flavor AND is auto-copied into
#           fuzz/corpus/<target>/regression/ so it becomes a permanent
#           replay test; commit it together with the parser fix. Skipped
#           with a note when no clang++ is on PATH.
#
#   analyze opt-in via --analyze: the static-analysis source gate —
#           scholar_analyze (the dataflow rules unchecked-status,
#           hot-loop-alloc, lock-order and determinism; the parallel pack
#           shared-mutation, dangling-capture, atomic-confinement and
#           guard-consistency; the token rules mutex-guard, float-compare,
#           raw-stdout, include-order, materialize-snapshot,
#           include-layering, unchecked-read and raw-intrinsics; and the
#           stale-nolint audit) over every src/ and tools/ source, gated
#           against tools/analyze_baseline.txt, emitting SARIF to
#           build-check-analyze/analyze.sarif. The analyzer runs twice —
#           cold-serial (--jobs=1, empty cache) then warm-parallel
#           (--jobs=$(nproc), cache primed by the first run) — asserts
#           the two SARIF outputs are byte-identical, and prints both
#           wall times plus the speedup ratio (informative only; on a
#           1-core box the ratio hovers near 1). The gate also runs
#           inside the plain flavor's ctest pass (labels tier1;analysis),
#           so the --fast lane covers it; this flavor is the standalone
#           entry point that produces the SARIF artifact without a test
#           build.
#
# Usage: tools/check_analysis.sh [--fast] [--fuzz[=seconds]] [--bench-gate]
#                                [--analyze] [flavor...]
#   --fast     run only tier1-labeled tests (which include the fuzz_replay
#              corpus tests and the analyzer source gate; the
#              analyzer gate runs with --jobs=0 (auto = nproc) against the
#              build tree's persistent cache, so repeat --fast runs are
#              warm) instead of the full suite
#   --fuzz[=N] also run the fuzz flavor, N seconds per harness (default 30)
#   --analyze  also run the analyze flavor (see above)
#   --bench-gate
#              also run the bench-gate flavor: rank_scaling --smoke
#              (TWPR, Katz and SCEAS through the publication-order solver
#              at 1/2/4/8 threads), then serve_scaling --smoke against a
#              live event-loop server. The binaries assert their own
#              contracts (bit-identity at every thread count and, on the
#              clean corpus, L1 <= 1e-11 to a tight reference; zero
#              errors / zero dropped responses across mid-run hot swaps
#              and BUSY shedding under overload); any violation fails the
#              gate. Smoke timings are not
#              measurements — this gate checks contracts, not speed.
#   flavor...  subset of: plain asan tsan ubsan tsa (default: all)
#
# Exit status is nonzero when any selected flavor fails. Build dirs are
# build-check-<flavor>/ at the repo root and are reused across runs.

set -u

cd "$(dirname "$0")/.." || exit 2
ROOT=$(pwd)
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}
CTEST_ARGS=("--output-on-failure" "-j" "$JOBS")

FAST=0
FUZZ=0
BENCH_GATE=0
ANALYZE=0
FUZZ_SECONDS=30
FLAVORS=()
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --fuzz) FUZZ=1 ;;
    --fuzz=*)
      FUZZ=1
      FUZZ_SECONDS="${arg#--fuzz=}"
      case "$FUZZ_SECONDS" in
        ''|*[!0-9]*) echo "--fuzz= wants a whole number of seconds" >&2; exit 2 ;;
      esac
      ;;
    --bench-gate) BENCH_GATE=1 ;;
    --analyze) ANALYZE=1 ;;
    plain|asan|tsan|ubsan|tsa) FLAVORS+=("$arg") ;;
    analyze) ANALYZE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [ ${#FLAVORS[@]} -eq 0 ]; then
  # --fuzz / --bench-gate / --analyze alone mean "just that gate", not
  # "everything plus it".
  if [ "$FUZZ" -eq 1 ] || [ "$BENCH_GATE" -eq 1 ] || [ "$ANALYZE" -eq 1 ]; then
    FLAVORS=()
  else
    FLAVORS=(plain asan tsan ubsan tsa)
  fi
fi
[ "$FUZZ" -eq 1 ] && FLAVORS+=(fuzz)
[ "$BENCH_GATE" -eq 1 ] && FLAVORS+=(bench-gate)
[ "$ANALYZE" -eq 1 ] && FLAVORS+=(analyze)
# fuzz_replay is a subset of tier1, so the fast lane replays the corpora
# too; the label is spelled out to keep that property grep-able.
[ "$FAST" -eq 1 ] && CTEST_ARGS+=("-L" "tier1|bench_smoke|fuzz_replay")

declare -A RESULT

cmake_flags_for() {
  case "$1" in
    plain) echo "" ;;
    asan)  echo "-DSCHOLAR_ENABLE_ASAN=ON" ;;
    tsan)  echo "-DSCHOLAR_ENABLE_TSAN=ON" ;;
    ubsan) echo "-DSCHOLAR_ENABLE_UBSAN=ON" ;;
    tsa)   echo "-DSCHOLAR_ENABLE_THREAD_SAFETY_ANALYSIS=ON" ;;
    fuzz)  echo "-DSCHOLAR_ENABLE_FUZZERS=ON -DSCHOLARRANK_BUILD_BENCHMARKS=OFF -DSCHOLARRANK_BUILD_EXAMPLES=OFF" ;;
    bench-gate) echo "" ;;
    analyze) echo "" ;;
  esac
}

# Mirrors SCHOLAR_FUZZ_TARGETS in fuzz/CMakeLists.txt.
FUZZ_TARGETS=(graph_io ground_truth aminer snapshot serve_request edge_batch)

run_fuzz_budgeted() {
  local build_dir=$1
  local failed=()
  for t in "${FUZZ_TARGETS[@]}"; do
    local corpus_src="$ROOT/fuzz/corpus/$t"
    local work="$build_dir/fuzz-work/$t"
    mkdir -p "$work/corpus" "$work/artifacts"
    echo "=== [fuzz] $t: ${FUZZ_SECONDS}s budget ==="
    if ! "$build_dir/fuzz/fuzz_$t" \
        -max_total_time="$FUZZ_SECONDS" -timeout=10 -print_final_stats=1 \
        -artifact_prefix="$work/artifacts/" \
        "$work/corpus" "$corpus_src/seed" "$corpus_src/regression"; then
      failed+=("$t")
      # A crasher is a permanent regression input from now on: copy it
      # into the checked-in corpus so fuzz_replay_<t> reproduces it on
      # every build flavor until the parser is fixed — then commit both.
      local a
      for a in "$work/artifacts/"*; do
        [ -f "$a" ] || continue
        cp "$a" "$corpus_src/regression/"
        echo "[fuzz] NEW CRASHER: copied $(basename "$a") into fuzz/corpus/$t/regression/"
      done
    fi
  done
  if [ ${#failed[@]} -gt 0 ]; then
    echo "[fuzz] crashing targets: ${failed[*]}" >&2
    return 1
  fi
  return 0
}

run_flavor() {
  local flavor=$1
  local build_dir="$ROOT/build-check-$flavor"
  local flags
  flags=$(cmake_flags_for "$flavor")
  local extra=()

  if [ "$flavor" = "tsa" ] || [ "$flavor" = "fuzz" ]; then
    # Both gates are clang-only (-Wthread-safety / -fsanitize=fuzzer); the
    # cmake options degrade to warnings under other compilers, which would
    # make these flavors report a pass they did not earn.
    local clangxx
    clangxx=$(command -v clang++ || true)
    if [ -z "$clangxx" ]; then
      RESULT[$flavor]="SKIP (no clang++ on PATH)"
      return 0
    fi
    extra+=("-DCMAKE_CXX_COMPILER=$clangxx")
  fi

  echo "=== [$flavor] configure ==="
  # shellcheck disable=SC2086  # $flags is intentionally word-split
  if ! cmake -B "$build_dir" -S "$ROOT" $flags "${extra[@]}"; then
    RESULT[$flavor]="FAIL (configure)"
    return 1
  fi
  echo "=== [$flavor] build ==="
  local build_args=()
  if [ "$flavor" = "analyze" ]; then
    # The source gate is a self-contained binary; no library build needed.
    build_args+=("--target" "scholar_analyze")
  fi
  if ! cmake --build "$build_dir" -j "$JOBS" "${build_args[@]}"; then
    RESULT[$flavor]="FAIL (build)"
    return 1
  fi
  if [ "$flavor" = "tsa" ]; then
    # Compiling warning-free under -Wthread-safety -Werror *is* the test.
    RESULT[$flavor]="PASS (compile gate)"
    return 0
  fi
  if [ "$flavor" = "fuzz" ]; then
    if ! run_fuzz_budgeted "$build_dir"; then
      RESULT[$flavor]="FAIL (new crasher; copied into fuzz/corpus/*/regression/)"
      return 1
    fi
    RESULT[$flavor]="PASS (${FUZZ_SECONDS}s/harness, no crashers)"
    return 0
  fi
  if [ "$flavor" = "analyze" ]; then
    local sarif="$build_dir/analyze.sarif"
    local sources=()
    while IFS= read -r f; do sources+=("$f"); done \
      < <(find "$ROOT/src" "$ROOT/tools" \( -name '*.cc' -o -name '*.h' \) | sort)
    # Two timed analyzer runs: cold-serial establishes the reference
    # output and primes the cache; warm-parallel must reproduce it byte
    # for byte. The wall-time ratio is informative, not a gate — on a
    # 1-core container warm-parallel still wins via the cache alone.
    local nproc_jobs
    nproc_jobs=$(nproc 2>/dev/null || echo 2)
    rm -f "$build_dir/analyze.cache"
    echo "=== [analyze] scholar_analyze over ${#sources[@]} sources (cold, --jobs=1) ==="
    local t0 t1 t2
    t0=$(date +%s%N)
    if ! "$build_dir/tools/scholar_analyze" --jobs=1 \
        --baseline="$ROOT/tools/analyze_baseline.txt" \
        --cache="$build_dir/analyze.cache" \
        --sarif="$sarif.cold" "${sources[@]}"; then
      RESULT[$flavor]="FAIL (scholar_analyze findings; SARIF at $sarif.cold)"
      return 1
    fi
    t1=$(date +%s%N)
    echo "=== [analyze] scholar_analyze again (warm cache, --jobs=$nproc_jobs) ==="
    if ! "$build_dir/tools/scholar_analyze" --jobs="$nproc_jobs" \
        --baseline="$ROOT/tools/analyze_baseline.txt" \
        --cache="$build_dir/analyze.cache" \
        --sarif="$sarif" "${sources[@]}"; then
      RESULT[$flavor]="FAIL (scholar_analyze findings; SARIF at $sarif)"
      return 1
    fi
    t2=$(date +%s%N)
    if ! cmp -s "$sarif.cold" "$sarif"; then
      RESULT[$flavor]="FAIL (warm --jobs=$nproc_jobs SARIF differs from cold serial run)"
      return 1
    fi
    rm -f "$sarif.cold"
    local cold_ms=$(( (t1 - t0) / 1000000 ))
    local warm_ms=$(( (t2 - t1) / 1000000 ))
    local ratio
    ratio=$(awk -v c="$cold_ms" -v w="$warm_ms" \
      'BEGIN { if (w > 0) printf "%.2f", c / w; else print "inf" }')
    echo "[analyze] cold serial ${cold_ms}ms, warm --jobs=$nproc_jobs ${warm_ms}ms (${ratio}x)"
    RESULT[$flavor]="PASS (clean, cold and warm; cold ${cold_ms}ms / warm ${warm_ms}ms = ${ratio}x; SARIF at $sarif)"
    return 0
  fi
  if [ "$flavor" = "bench-gate" ]; then
    # rank_scaling --smoke SCHOLAR_CHECKs bit-identity at every thread
    # count and, on the clean corpus, the L1 distance to a tight
    # reference; a nonzero exit is a contract violation,
    # not a slow machine. serve_scaling --smoke does the same
    # for the serving tier: zero errors / zero dropped responses across
    # mid-run hot swaps and BUSY shedding under a tiny batch bound.
    local gate_work="$build_dir/bench-gate-work"
    mkdir -p "$gate_work"
    echo "=== [bench-gate] rank_scaling --smoke (solver contracts) ==="
    if ! (cd "$gate_work" && "$build_dir/bench/rank_scaling" --smoke); then
      RESULT[$flavor]="FAIL (solver contract violated)"
      return 1
    fi
    echo "=== [bench-gate] serve_scaling --smoke (serving-tier contracts) ==="
    if ! (cd "$gate_work" && "$build_dir/bench/serve_scaling" --smoke); then
      RESULT[$flavor]="FAIL (serving-tier contract violated)"
      return 1
    fi
    RESULT[$flavor]="PASS (solver + serving-tier contracts)"
    return 0
  fi
  echo "=== [$flavor] test ==="
  if ! ctest --test-dir "$build_dir" "${CTEST_ARGS[@]}"; then
    RESULT[$flavor]="FAIL (tests)"
    return 1
  fi
  RESULT[$flavor]="PASS"
  return 0
}

STATUS=0
for flavor in "${FLAVORS[@]}"; do
  run_flavor "$flavor" || STATUS=1
done

echo
echo "================ analysis matrix ================"
for flavor in "${FLAVORS[@]}"; do
  printf "  %-6s %s\n" "$flavor" "${RESULT[$flavor]}"
done
echo "================================================="
exit $STATUS
