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
///            views; copies cost k·(V+E)). Measured twice: on the synthetic
///            corpus as generated, whose ids are year-monotone so the index
///            shares the parent graph by pointer (the identity fast path),
///            and on a seeded year-shuffled relabel of it, where the index
///            builds its own year-sorted copy — the path shuffled files and
///            real dumps take.
///   rank   — full ens_twpr at 1/2/4/8 threads. Each snapshot is one
///            publication-order pass (rank/pagerank.h; the generated corpus
///            has no reference to a newer article), so every row performs
///            identical arithmetic. Snapshots rank one after another in
///            index order; N threads means N-thread row setup plus an
///            N-wide ensemble pool. Every row must match the 1-thread run
///            bit for bit — the bench aborts otherwise.
///            (tests/ensemble_view_test.cc holds the materialized oracle
///            the views are checked against.)
///
/// RSS growth (VmRSS read before and after each setup phase, while its
/// structures are alive) is informative only: the allocator dominates it;
/// the retained-bytes accounting is the honest memory claim.
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ensemble/ensemble_ranker.h"
#include "ensemble/time_partitioner.h"
#include "graph/graph_builder.h"
#include "graph/temporal_csr.h"
#include "graph/time_slicer.h"
#include "rank/time_weighted_pagerank.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace scholar;
using namespace scholar::bench;

namespace {

constexpr int kNumSlices = 8;
constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr uint64_t kShuffleSeed = 20180417;

struct SetupStats {
  double view_build_ms = 0.0;
  double materialized_extract_ms = 0.0;
  double setup_speedup = 0.0;
  size_t view_bytes = 0;
  size_t materialized_bytes = 0;
  double memory_reduction = 0.0;
  size_t rss_growth_view_kb = 0;
  size_t rss_growth_materialized_kb = 0;
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

/// VmRSS from /proc/self/status, in kB; 0 when unavailable.
size_t ReadRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = static_cast<size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// RSS gained since `base_kb` (0 when it shrank).
size_t RssGrowthKb(size_t base_kb) {
  const size_t now_kb = ReadRssKb();
  return now_kb > base_kb ? now_kb - base_kb : 0;
}

SetupStats MeasureSetup(const CitationGraph& g,
                        const std::vector<Year>& boundaries) {
  SetupStats stats;

  const size_t rss_before_view_kb = ReadRssKb();
  WallTimer view_timer;
  TemporalCsr tcsr(g);
  std::vector<SnapshotView> views;
  views.reserve(boundaries.size());
  for (Year b : boundaries) views.push_back(tcsr.MakeView(b));
  stats.view_build_ms = view_timer.ElapsedMillis();
  stats.rss_growth_view_kb = RssGrowthKb(rss_before_view_kb);
  stats.view_bytes = tcsr.ApproxBytes() + views.size() * sizeof(SnapshotView);

  const size_t rss_before_mat_kb = ReadRssKb();
  WallTimer mat_timer;
  std::vector<Snapshot> snapshots;
  snapshots.reserve(boundaries.size());
  for (Year b : boundaries) snapshots.push_back(ExtractSnapshot(g, b));
  stats.materialized_extract_ms = mat_timer.ElapsedMillis();
  stats.rss_growth_materialized_kb = RssGrowthKb(rss_before_mat_kb);
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

/// The graph with node ids permuted by a seeded shuffle: same years, same
/// citations, but ids no longer year-monotone.
CitationGraph ShuffledRelabel(const CitationGraph& g, uint64_t seed) {
  const size_t n = g.num_nodes();
  std::vector<NodeId> to_old(n);
  std::iota(to_old.begin(), to_old.end(), NodeId{0});
  Rng rng(seed);
  rng.Shuffle(&to_old);
  std::vector<NodeId> to_new(n);
  for (NodeId s = 0; s < n; ++s) to_new[to_old[s]] = s;
  GraphBuilder builder;
  builder.ReserveEdges(g.num_edges());
  for (NodeId s = 0; s < n; ++s) builder.AddNode(g.year(to_old[s]));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.References(u)) {
      SCHOLAR_CHECK_OK(builder.AddEdge(to_new[u], to_new[v]));
    }
  }
  Result<CitationGraph> shuffled = std::move(builder).Build();
  SCHOLAR_CHECK_OK(shuffled.status());
  return std::move(shuffled).value();
}

void PrintSetup(const char* label, const SetupStats& setup) {
  std::printf(
      "  setup (%s): views %.1f ms vs materialized %.1f ms (%.1fx); "
      "retained %zu vs %zu bytes (%.1fx)\n",
      label, setup.view_build_ms, setup.materialized_extract_ms,
      setup.setup_speedup, setup.view_bytes, setup.materialized_bytes,
      setup.memory_reduction);
}

void WriteSetupJson(std::FILE* f, const char* key, const SetupStats& setup) {
  std::fprintf(
      f,
      "  \"%s\": {\"view_build_ms\": %.3f, "
      "\"materialized_extract_ms\": %.3f, \"setup_speedup\": %.2f,\n"
      "            \"view_snapshot_bytes\": %zu, "
      "\"materialized_snapshot_bytes\": %zu, \"memory_reduction\": %.2f,\n"
      "            \"rss_growth_view_kb\": %zu, "
      "\"rss_growth_materialized_kb\": %zu},\n",
      key, setup.view_build_ms, setup.materialized_extract_ms,
      setup.setup_speedup, setup.view_bytes, setup.materialized_bytes,
      setup.memory_reduction, setup.rss_growth_view_kb,
      setup.rss_growth_materialized_kb);
}

/// `threads` bounds both levels: the ensemble's workers and each solve's
/// own pool (0 would mean every core), so the 1-thread row is serial.
EnsembleRanker MakeEnsemble(int threads) {
  TwprOptions twpr;
  twpr.power.threads = threads;
  EnsembleOptions o;
  o.num_slices = kNumSlices;
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
               const SetupStats& setup_shuffled, const std::vector<Row>& rows,
               const char* path) {
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
               "  \"solver\": \"publication_order\",\n"
               "  \"hardware_concurrency\": %u,\n",
               g.num_nodes(), g.num_edges(), kNumSlices,
               std::thread::hardware_concurrency());
  WriteHostJson(f);
  WriteSetupJson(f, "setup", setup);
  WriteSetupJson(f, "setup_shuffled", setup_shuffled);
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
  PrintSetup("year-monotone ids", setup);
  // Same years, so the same boundaries.
  const SetupStats setup_shuffled =
      MeasureSetup(ShuffledRelabel(g, kShuffleSeed), *boundaries);
  PrintSetup("shuffled ids", setup_shuffled);

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

  WriteJson(g, setup, setup_shuffled, rows, "BENCH_ensemble_scaling.json");
  return 0;
}
