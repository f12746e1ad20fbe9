/// Ensemble-scaling baseline — cost of the ensemble's snapshot machinery,
/// written to BENCH_ensemble_scaling.json so the perf trajectory is tracked
/// in-repo.
///
/// Two claims are measured on an AMiner-profile graph with k equal-count
/// slices:
///
///   setup  — building one TemporalCsr index + k O(1) views vs extracting
///            k materialized CitationGraph copies, and the bytes each
///            snapshot structure retains (the index is V+E+k shared by all
///            views; copies cost k·(V+E)).
///   rank   — full ens_twpr at 1/2/4/8 threads, fixed iteration count
///            (tolerance 0) so every row performs identical arithmetic.
///            Every row must match the 1-thread run bit for bit — the bench
///            aborts otherwise. (tests/ensemble_view_test.cc holds the
///            materialized oracle the views are checked against.)
///
/// Peak-RSS numbers (VmHWM around each setup phase, reset via
/// /proc/self/clear_refs) are informative only: the allocator and the
/// corpus dominate them; the retained-bytes accounting is the honest
/// memory claim.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ensemble/ensemble_ranker.h"
#include "ensemble/time_partitioner.h"
#include "graph/temporal_csr.h"
#include "graph/time_slicer.h"
#include "rank/time_weighted_pagerank.h"
#include "util/timer.h"

using namespace scholar;
using namespace scholar::bench;

namespace {

constexpr int kNumSlices = 8;
constexpr int kFixedIterations = 10;
constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct SetupStats {
  double view_build_ms = 0.0;
  double materialized_extract_ms = 0.0;
  double setup_speedup = 0.0;
  size_t view_bytes = 0;
  size_t materialized_bytes = 0;
  double memory_reduction = 0.0;
  size_t peak_rss_view_kb = 0;
  size_t peak_rss_materialized_kb = 0;
};

struct Row {
  int threads = 0;
  int iterations = 0;
  double view_wall_ms = 0.0;
  bool scores_match_serial = false;
};

/// Heap bytes a CitationGraph retains (years + out/in CSR).
size_t GraphBytes(const CitationGraph& g) {
  const size_t n = g.num_nodes();
  const size_t m = g.num_edges();
  return n * sizeof(Year) + 2 * (n + 1) * sizeof(EdgeId) +
         2 * m * sizeof(NodeId);
}

size_t SnapshotBytes(const Snapshot& snap) {
  return GraphBytes(snap.graph) +
         (snap.to_parent.size() + snap.from_parent.size()) * sizeof(NodeId);
}

/// VmHWM from /proc/self/status, in kB; 0 when unavailable.
size_t ReadPeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = static_cast<size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Resets the kernel's peak-RSS watermark to the current RSS so the next
/// ReadPeakRssKb reflects only what happened in between.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

SetupStats MeasureSetup(const CitationGraph& g,
                        const std::vector<Year>& boundaries) {
  SetupStats stats;

  ResetPeakRss();
  WallTimer view_timer;
  TemporalCsr tcsr(g);
  std::vector<SnapshotView> views;
  views.reserve(boundaries.size());
  for (Year b : boundaries) views.push_back(tcsr.MakeView(b));
  stats.view_build_ms = view_timer.ElapsedMillis();
  stats.peak_rss_view_kb = ReadPeakRssKb();
  stats.view_bytes = tcsr.ApproxBytes() + views.size() * sizeof(SnapshotView);

  ResetPeakRss();
  WallTimer mat_timer;
  std::vector<Snapshot> snapshots;
  snapshots.reserve(boundaries.size());
  for (Year b : boundaries) snapshots.push_back(ExtractSnapshot(g, b));
  stats.materialized_extract_ms = mat_timer.ElapsedMillis();
  stats.peak_rss_materialized_kb = ReadPeakRssKb();
  for (const Snapshot& snap : snapshots) {
    stats.materialized_bytes += SnapshotBytes(snap);
  }

  stats.setup_speedup =
      stats.view_build_ms > 0.0
          ? stats.materialized_extract_ms / stats.view_build_ms
          : 0.0;
  stats.memory_reduction =
      stats.view_bytes > 0
          ? static_cast<double>(stats.materialized_bytes) /
                static_cast<double>(stats.view_bytes)
          : 0.0;
  return stats;
}

/// `threads` bounds both levels: the ensemble's workers and each solve's
/// own pool (0 would mean every core), so the 1-thread row is serial.
EnsembleRanker MakeEnsemble(int threads) {
  TwprOptions twpr;
  twpr.power.tolerance = 0.0;  // fixed work at every thread count
  twpr.power.max_iterations = kFixedIterations;
  twpr.power.threads = threads;
  EnsembleOptions o;
  o.num_slices = kNumSlices;
  o.warm_start = false;  // snapshots rank concurrently — the hard mode
  o.threads = threads;
  return EnsembleRanker(std::make_shared<TimeWeightedPageRank>(twpr), o);
}

double TimeRank(const EnsembleRanker& ens, const CitationGraph& g,
                int repeats, RankResult* out) {
  RankContext ctx;
  ctx.graph = &g;
  double best_ms = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer timer;
    Result<RankResult> result = ens.Rank(ctx);
    const double ms = timer.ElapsedMillis();
    SCHOLAR_CHECK_OK(result.status());
    if (ms < best_ms) best_ms = ms;
    *out = std::move(result).value();
  }
  return best_ms;
}

void WriteJson(const CitationGraph& g, const SetupStats& setup,
               const std::vector<Row>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  SCHOLAR_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"ensemble_scaling\",\n"
               "  \"ranker\": \"ens_twpr\",\n"
               "  \"profile\": \"aminer\",\n"
               "  \"nodes\": %zu,\n"
               "  \"edges\": %zu,\n"
               "  \"num_slices\": %d,\n"
               "  \"max_iterations\": %d,\n"
               "  \"hardware_concurrency\": %u,\n",
               g.num_nodes(), g.num_edges(), kNumSlices, kFixedIterations,
               std::thread::hardware_concurrency());
  WriteHostJson(f);
  std::fprintf(
      f,
      "  \"setup\": {\"view_build_ms\": %.3f, "
      "\"materialized_extract_ms\": %.3f, \"setup_speedup\": %.2f,\n"
      "            \"view_snapshot_bytes\": %zu, "
      "\"materialized_snapshot_bytes\": %zu, \"memory_reduction\": %.2f,\n"
      "            \"peak_rss_view_kb\": %zu, "
      "\"peak_rss_materialized_kb\": %zu},\n",
      setup.view_build_ms, setup.materialized_extract_ms,
      setup.setup_speedup, setup.view_bytes, setup.materialized_bytes,
      setup.memory_reduction, setup.peak_rss_view_kb,
      setup.peak_rss_materialized_kb);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"iterations\": %d, "
                 "\"view_wall_ms\": %.2f, \"scores_match_serial\": %s}%s\n",
                 r.threads, r.iterations, r.view_wall_ms,
                 r.scores_match_serial ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  Banner("ensemble_scaling",
         "zero-copy temporal views: setup vs materialized snapshots, "
         "ens_twpr thread scaling");
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  const size_t articles = g_smoke ? 2000 : quick ? 20000 : 1000000;
  const int repeats = g_smoke || quick ? 1 : 2;

  std::printf("generating aminer corpus, n=%zu ...\n", articles);
  const Corpus corpus = MakeBenchCorpus("aminer", articles);
  const CitationGraph& g = corpus.graph;
  std::printf("  graph: %zu nodes, %zu edges\n", g.num_nodes(),
              g.num_edges());

  Result<std::vector<Year>> boundaries =
      ComputeSliceBoundaries(g, kNumSlices, PartitionStrategy::kEqualCount);
  SCHOLAR_CHECK_OK(boundaries.status());

  const SetupStats setup = MeasureSetup(g, *boundaries);
  std::printf(
      "  setup: views %.1f ms vs materialized %.1f ms (%.1fx); "
      "retained %zu vs %zu bytes (%.1fx)\n",
      setup.view_build_ms, setup.materialized_extract_ms,
      setup.setup_speedup, setup.view_bytes, setup.materialized_bytes,
      setup.memory_reduction);

  std::vector<Row> rows;
  std::vector<double> serial_scores;
  for (int threads : kThreadCounts) {
    Row row;
    row.threads = threads;
    RankResult view_result;
    row.view_wall_ms =
        TimeRank(MakeEnsemble(threads), g, repeats, &view_result);
    row.iterations = view_result.iterations;
    if (threads == 1) serial_scores = view_result.scores;
    row.scores_match_serial = view_result.scores == serial_scores;
    std::printf("  threads=%d  view=%.1f ms  serial_match=%s\n", row.threads,
                row.view_wall_ms, row.scores_match_serial ? "yes" : "NO");
    SCHOLAR_CHECK(row.scores_match_serial)
        << "view scores diverged from the 1-thread run at " << threads
        << " threads";
    rows.push_back(row);
  }

  WriteJson(g, setup, rows, "BENCH_ensemble_scaling.json");
  return 0;
}
