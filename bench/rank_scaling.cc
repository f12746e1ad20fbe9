/// Rank-scaling baseline — wall time of the pull-based TWPR ranking across
/// the iteration-engine variant matrix (SIMD x precision x weight codebook
/// x convergence mode) and across 1/2/4/8 threads, written
/// to BENCH_rank_scaling.json so the perf trajectory is tracked in-repo.
///
/// Two workloads per corpus size:
///
///   fixed    tolerance 0, a constant 20 iterations — every fixed-sweep
///            variant performs identical arithmetic, so these rows isolate
///            the per-sweep cost of each ISA/precision choice and
///            carry the identity/drift contracts;
///   converge tolerance 1e-12, run to convergence — the production shape.
///            Adaptive rows legitimately gather less as regions settle, so
///            this is where the campaign's time-to-solution claim lives.
///
/// Contracts asserted here, not just reported:
///
///   - scalar/avx2 double fixed variants (and every thread count)
///     reproduce the scalar single-thread scores bit for bit;
///   - float-precision fixed rows drift <= 1e-6 absolute from the double
///     scores;
///   - on the full 1M-node corpus, the best converge-workload variant
///     *within the 1e-6 drift budget* reaches the converged legacy scores
///     >= 2x faster than the legacy (PR-2) order does;
///   - parallel efficiency at 4 threads is >= 0.6 — checked only on hosts
///     with >= 4 real cores (a single-core runner writes
///     "single_core_untrusted": true instead, and every scaling row it
///     produces is decoration).
///
/// Any speedup_vs_1 < 1 at threads > 1 prints a WARNING line: adding
/// threads must never lose to serial on a multi-core host.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "rank/kernel/kernel_options.h"
#include "rank/kernel/simd.h"
#include "util/timer.h"

using namespace scholar;
using namespace scholar::bench;

namespace {

constexpr int kFixedIterations = 20;
constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr double kFloatDriftBound = 1e-6;
// The converge workload's stopping tolerance (production shape: run until
// the per-iteration residual settles).
constexpr double kConvergeTolerance = 1e-12;
constexpr int kConvergeMaxIterations = 600;

struct Variant {
  const char* simd;         // "scalar" | "auto" (widest ISA) | "legacy"
  const char* precision;    // "double" | "float"
  bool adaptive;
  // 0 = the engine's default freeze threshold (1e-13, near-exact).
  // > 0 = an explicit drift budget: rows freeze once no source moved more
  // than this per sweep, trading bounded score drift for skipped gathers.
  double adaptive_tol = 0.0;
  // Byte-code the TWPR weight stream (bit-identical; see kernel_options.h).
  bool codebook = false;
};

struct Row {
  size_t nodes = 0;
  size_t edges = 0;
  std::string workload = "fixed";  // "fixed" | "converge"
  std::string variant;
  std::string simd_resolved;
  int threads = 0;
  int iterations = 0;
  double wall_ms = 0.0;
  double speedup_vs_legacy = 0.0;  // single-thread variant rows
  double speedup_vs_1 = 0.0;       // thread-sweep rows
  bool bit_identical = false;      // vs the workload's reference scores
  double max_abs_diff = 0.0;       // ditto (0 when bit_identical)
};

std::string VariantLabel(const Variant& v) {
  std::string s = v.simd;
  s += v.precision[0] == 'f' && v.precision[1] == 'l' ? "/f32" : "/f64";
  if (v.codebook) s += "/codebook";
  s += v.adaptive ? "/adaptive" : "/fixed";
  if (v.adaptive && v.adaptive_tol > 0.0) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "@%.0e", v.adaptive_tol);
    s += buf;
  }
  return s;
}

Config TwprConfig(const Variant& v, int threads, bool converge) {
  Config config;
  if (converge) {
    config.SetDouble("tolerance", kConvergeTolerance);
    config.SetInt("max_iterations", kConvergeMaxIterations);
  } else {
    config.SetDouble("tolerance", 0.0);  // fixed work at every thread count
    config.SetInt("max_iterations", kFixedIterations);
  }
  config.SetInt("threads", threads);
  config.Set("simd", v.simd);
  config.Set("score_precision", v.precision);
  config.SetBool("weight_codebook", v.codebook);
  config.SetBool("adaptive", v.adaptive);
  if (v.adaptive && v.adaptive_tol > 0.0) {
    config.SetDouble("adaptive_tolerance", v.adaptive_tol);
  }
  return config;
}

/// Best-of-`repeats` wall time of one full TWPR rank under one variant.
Row RunOne(const Corpus& corpus, const Variant& v, int threads, int repeats,
           const std::vector<double>* oracle_scores,
           std::vector<double>* scores_out, bool converge = false) {
  auto ranker = MakeRanker("twpr", TwprConfig(v, threads, converge)).value();
  RankContext ctx;
  ctx.graph = &corpus.graph;
  Row row;
  row.nodes = corpus.graph.num_nodes();
  row.edges = corpus.graph.num_edges();
  row.workload = converge ? "converge" : "fixed";
  row.variant = VariantLabel(v);
  row.simd_resolved = std::string(v.simd) == "auto"
                          ? kernel::SimdIsaName()
                          : v.simd;
  row.threads = threads;
  row.wall_ms = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer timer;
    Result<RankResult> result = ranker->Rank(ctx);
    const double ms = timer.ElapsedMillis();
    SCHOLAR_CHECK_OK(result.status());
    row.iterations = result->iterations;
    if (ms < row.wall_ms) row.wall_ms = ms;
    if (oracle_scores != nullptr) {
      row.bit_identical = *oracle_scores == result->scores;
      row.max_abs_diff = 0.0;
      for (size_t i = 0; i < result->scores.size(); ++i) {
        row.max_abs_diff = std::max(
            row.max_abs_diff,
            std::fabs(result->scores[i] - (*oracle_scores)[i]));
      }
    }
    if (rep == repeats - 1 && scores_out != nullptr) {
      *scores_out = std::move(result->scores);
    }
  }
  return row;
}

void BenchSize(size_t articles, int repeats, std::vector<Row>* rows) {
  std::printf("generating aminer corpus, n=%zu ...\n", articles);
  const Corpus corpus = MakeBenchCorpus("aminer", articles);
  std::printf("  graph: %zu nodes, %zu edges\n", corpus.graph.num_nodes(),
              corpus.graph.num_edges());
  const unsigned hw = std::thread::hardware_concurrency();

  // The PR-2 baseline: legacy sequential accumulation, double, fixed
  // sweeps, one thread. Every single-thread variant row reports its
  // speedup against this.
  const Variant legacy{"legacy", "double", false};
  Row legacy_row = RunOne(corpus, legacy, /*threads=*/1, repeats,
                          /*oracle_scores=*/nullptr, /*scores_out=*/nullptr);
  legacy_row.speedup_vs_legacy = 1.0;
  legacy_row.speedup_vs_1 = 1.0;
  legacy_row.bit_identical = true;  // it is its own reference
  const double legacy_ms = legacy_row.wall_ms;
  std::printf("  baseline %-28s wall_ms=%9.1f  (PR-2 order)\n",
              legacy_row.variant.c_str(), legacy_ms);
  rows->push_back(legacy_row);

  // Bit-exactness oracle: scalar/double/fixed at one thread.
  const Variant scalar_ref{"scalar", "double", false};
  std::vector<double> oracle;
  Row oracle_row = RunOne(corpus, scalar_ref, /*threads=*/1, repeats,
                          /*oracle_scores=*/nullptr, &oracle);
  oracle_row.speedup_vs_legacy = legacy_ms / oracle_row.wall_ms;
  oracle_row.speedup_vs_1 = 1.0;
  oracle_row.bit_identical = true;
  rows->push_back(oracle_row);
  std::printf("  oracle   %-28s wall_ms=%9.1f  speedup_vs_legacy=%5.2fx\n",
              oracle_row.variant.c_str(), oracle_row.wall_ms,
              oracle_row.speedup_vs_legacy);

  // Single-thread variant matrix: {scalar, widest-ISA} x {double, float} x
  // {fixed, adaptive}, skipping the oracle already measured above.
  double best_speedup = oracle_row.speedup_vs_legacy;
  std::string best_variant = oracle_row.variant;
  for (const char* simd : {"scalar", "auto"}) {
    for (const char* precision : {"double", "float"}) {
      for (bool adaptive : {false, true}) {
        const Variant v{simd, precision, adaptive};
        if (VariantLabel(v) == oracle_row.variant) continue;
        Row row = RunOne(corpus, v, /*threads=*/1, repeats, &oracle, nullptr);
        row.speedup_vs_legacy = legacy_ms / row.wall_ms;
        row.speedup_vs_1 = 1.0;
        const std::string accuracy =
            row.bit_identical
                ? std::string("bit-identical")
                : "max_abs_diff=" + std::to_string(row.max_abs_diff);
        std::printf(
            "  variant  %-28s wall_ms=%9.1f  speedup_vs_legacy=%5.2fx  "
            "%s\n",
            row.variant.c_str(), row.wall_ms, row.speedup_vs_legacy,
            accuracy.c_str());
        const bool is_double = std::string(precision) == "double";
        if (is_double && !adaptive) {
          SCHOLAR_CHECK(row.bit_identical)
              << row.variant
              << " must reproduce the scalar oracle bit for bit";
        } else if (!is_double && !adaptive) {
          SCHOLAR_CHECK(row.max_abs_diff <= kFloatDriftBound)
              << row.variant << " drifted " << row.max_abs_diff
              << " > " << kFloatDriftBound << " from the double scores";
        }
        if (row.speedup_vs_legacy > best_speedup) {
          best_speedup = row.speedup_vs_legacy;
          best_variant = row.variant;
        }
        rows->push_back(std::move(row));
      }
    }
  }
  // Codebook rows: the weight stream as 1-byte codes into an L1 table.
  // The double row must stay bit-identical (the table round-trips the
  // exact weight bits); the float row inherits the mirror's drift bound.
  for (const Variant& v :
       {Variant{"auto", "double", false, 0.0, true},
        Variant{"auto", "float", false, 0.0, true}}) {
    Row row = RunOne(corpus, v, /*threads=*/1, repeats, &oracle, nullptr);
    row.speedup_vs_legacy = legacy_ms / row.wall_ms;
    row.speedup_vs_1 = 1.0;
    const bool is_double = std::string(v.precision) == "double";
    std::printf(
        "  variant  %-28s wall_ms=%9.1f  speedup_vs_legacy=%5.2fx  %s\n",
        row.variant.c_str(), row.wall_ms, row.speedup_vs_legacy,
        row.bit_identical
            ? "bit-identical"
            : ("max_abs_diff=" + std::to_string(row.max_abs_diff)).c_str());
    if (is_double) {
      SCHOLAR_CHECK(row.bit_identical)
          << row.variant << " must reproduce the scalar oracle bit for bit";
    } else {
      SCHOLAR_CHECK(row.max_abs_diff <= kFloatDriftBound)
          << row.variant << " drifted " << row.max_abs_diff;
    }
    if (row.speedup_vs_legacy > best_speedup) {
      best_speedup = row.speedup_vs_legacy;
      best_variant = row.variant;
    }
    rows->push_back(std::move(row));
  }
  // Drift-budget adaptive rows: the algorithmic half of the campaign.
  // With the default 1e-13 threshold almost no row freezes inside 20
  // sweeps; these rows spend an explicit per-source budget and report the
  // score drift they actually bought with it.
  for (const Variant& v : {Variant{"auto", "double", true, 1e-10},
                           Variant{"auto", "double", true, 1e-8},
                           Variant{"auto", "float", true, 1e-8}}) {
    Row row = RunOne(corpus, v, /*threads=*/1, repeats, &oracle, nullptr);
    row.speedup_vs_legacy = legacy_ms / row.wall_ms;
    row.speedup_vs_1 = 1.0;
    std::printf(
        "  variant  %-28s wall_ms=%9.1f  speedup_vs_legacy=%5.2fx  "
        "max_abs_diff=%.3e\n",
        row.variant.c_str(), row.wall_ms, row.speedup_vs_legacy,
        row.max_abs_diff);
    if (row.max_abs_diff <= kFloatDriftBound &&
        row.speedup_vs_legacy > best_speedup) {
      best_speedup = row.speedup_vs_legacy;
      best_variant = row.variant;
    }
    rows->push_back(std::move(row));
  }
  std::printf(
      "  best fixed-work single-thread variant (within the %.0e drift "
      "budget): %s at %.2fx vs legacy\n",
      kFloatDriftBound, best_variant.c_str(), best_speedup);

  // Thread sweep of the headline variant (widest ISA, double, fixed):
  // speedup_vs_1 plus bit-identity against the *scalar* oracle at every
  // thread count — one comparison proves both ISA- and thread-invariance.
  const Variant sweep{"auto", "double", false};
  double sweep_serial_ms = 0.0;
  for (int threads : kThreadCounts) {
    Row row = RunOne(corpus, sweep, threads, repeats, &oracle, nullptr);
    if (threads == 1) sweep_serial_ms = row.wall_ms;
    row.speedup_vs_legacy = legacy_ms / row.wall_ms;
    row.speedup_vs_1 = sweep_serial_ms / row.wall_ms;
    std::printf("  threads=%d %-27s wall_ms=%9.1f  speedup=%5.2fx  "
                "identical=%s\n",
                row.threads, row.variant.c_str(), row.wall_ms,
                row.speedup_vs_1, row.bit_identical ? "yes" : "NO");
    SCHOLAR_CHECK(row.bit_identical)
        << "scores diverged from the scalar oracle at " << threads
        << " threads";
    if (threads > 1 && row.speedup_vs_1 < 1.0) {
      std::printf(
          "  WARNING: speedup_vs_1=%.2f < 1 at threads=%d — adding threads "
          "lost to serial%s\n",
          row.speedup_vs_1, threads,
          hw <= 1 ? " (expected: single-core host)" : "");
    }
    if (threads == 4 && hw >= 4 && !g_smoke) {
      const double efficiency = row.speedup_vs_1 / 4.0;
      SCHOLAR_CHECK(efficiency >= 0.6)
          << "parallel efficiency " << efficiency
          << " at 4 threads below the 0.6 contract (" << hw
          << " cores available)";
    }
    rows->push_back(std::move(row));
  }
}

/// Time-to-solution workload: rank to tolerance 1e-12 and compare against
/// the converged legacy scores. This is where the campaign's >= 2x claim
/// is asserted — adaptive variants legitimately skip gathers as regions of
/// the graph settle, which fixed-sweep timing cannot show.
void BenchConverge(size_t articles, std::vector<Row>* rows) {
  std::printf("converge workload (tolerance %.0e), n=%zu ...\n",
              kConvergeTolerance, articles);
  const Corpus corpus = MakeBenchCorpus("aminer", articles);
  const bool full_corpus = corpus.graph.num_nodes() >= 1000000;

  const Variant legacy{"legacy", "double", false};
  std::vector<double> converged;
  Row legacy_row = RunOne(corpus, legacy, /*threads=*/1, /*repeats=*/1,
                          /*oracle_scores=*/nullptr, &converged,
                          /*converge=*/true);
  legacy_row.speedup_vs_legacy = 1.0;
  legacy_row.speedup_vs_1 = 1.0;
  legacy_row.bit_identical = true;  // it is its own reference
  const double legacy_ms = legacy_row.wall_ms;
  std::printf("  baseline %-32s wall_ms=%9.1f  iters=%3d\n",
              legacy_row.variant.c_str(), legacy_ms, legacy_row.iterations);
  rows->push_back(legacy_row);

  // The ladder from near-exact to the full drift budget. The @1e-12 /
  // @1e-11 freeze thresholds spend part of the 1e-6 budget on freezing
  // slow-moving rows earlier (measured drift stays 2-3 decades under it).
  const Variant converge_variants[] = {
      {"auto", "double", false},                   // SIMD only
      {"auto", "double", false, 0.0, true},        // + codebook
      {"auto", "double", true},                    // near-exact
      {"auto", "double", true, 0.0, true},
      {"auto", "float", true, 1e-12, false},
      {"auto", "float", true, 1e-12, true},
      {"auto", "float", true, 1e-11, true},
  };
  double best_speedup = 0.0;
  std::string best_variant = "(none)";
  for (const Variant& v : converge_variants) {
    Row row = RunOne(corpus, v, /*threads=*/1, /*repeats=*/1, &converged,
                     nullptr, /*converge=*/true);
    row.speedup_vs_legacy = legacy_ms / row.wall_ms;
    row.speedup_vs_1 = 1.0;
    std::printf(
        "  variant  %-32s wall_ms=%9.1f  iters=%3d  time_to_solution=%5.2fx"
        "  max_abs_diff=%.3e\n",
        row.variant.c_str(), row.wall_ms, row.iterations,
        row.speedup_vs_legacy, row.max_abs_diff);
    SCHOLAR_CHECK(row.max_abs_diff <= kFloatDriftBound)
        << row.variant << " converged " << row.max_abs_diff
        << " away from the legacy fixed point (budget " << kFloatDriftBound
        << ")";
    if (row.speedup_vs_legacy > best_speedup) {
      best_speedup = row.speedup_vs_legacy;
      best_variant = row.variant;
    }
    rows->push_back(std::move(row));
  }
  std::printf(
      "  best time-to-solution: %s at %.2fx vs legacy (all variants within "
      "the %.0e budget)\n",
      best_variant.c_str(), best_speedup, kFloatDriftBound);
  if (full_corpus && !g_smoke) {
    SCHOLAR_CHECK(best_speedup >= 2.0)
        << "raw-speed regression: best converge variant " << best_variant
        << " reaches the legacy fixed point only " << best_speedup
        << "x faster on the full corpus (contract: >= 2x within "
        << kFloatDriftBound << ")";
  }
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  SCHOLAR_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"rank_scaling\",\n"
               "  \"ranker\": \"twpr\",\n"
               "  \"profile\": \"aminer\",\n"
               "  \"fixed_iterations\": %d,\n"
               "  \"converge_tolerance\": %.0e,\n"
               "  \"hardware_concurrency\": %u,\n",
               kFixedIterations, kConvergeTolerance,
               std::thread::hardware_concurrency());
  WriteHostJson(f);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"edges\": %zu, \"workload\": \"%s\", "
                 "\"variant\": \"%s\", "
                 "\"simd_resolved\": \"%s\", \"threads\": %d, "
                 "\"iterations\": %d, \"wall_ms\": %.2f, "
                 "\"speedup_vs_legacy\": %.3f, \"speedup_vs_1\": %.3f, "
                 "\"bit_identical\": %s, \"max_abs_diff\": %.3e}%s\n",
                 r.nodes, r.edges, r.workload.c_str(), r.variant.c_str(),
                 r.simd_resolved.c_str(), r.threads, r.iterations, r.wall_ms,
                 r.speedup_vs_legacy, r.speedup_vs_1,
                 r.bit_identical ? "true" : "false", r.max_abs_diff,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  Banner("rank_scaling",
         "TWPR wall time across engine variants and thread counts "
         "(fixed 20-iteration work + converge-to-1e-12 time-to-solution)");
  std::printf("widest gather ISA on this host: %s\n", kernel::SimdIsaName());
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  std::vector<Row> rows;
  if (g_smoke) {
    // CI harness check: toy graph, one repeat (MakeBenchCorpus clamps).
    BenchSize(2000, /*repeats=*/1, &rows);
    BenchConverge(2000, &rows);
  } else if (quick) {
    BenchSize(20000, /*repeats=*/1, &rows);
    BenchConverge(20000, &rows);
  } else {
    BenchSize(100000, /*repeats=*/3, &rows);
    BenchSize(1000000, /*repeats=*/2, &rows);
    BenchConverge(100000, &rows);
    BenchConverge(1000000, &rows);
  }
  WriteJson(rows, "BENCH_rank_scaling.json");
  return 0;
}
