/// Rank-scaling baseline — wall time of a full TWPR rank through the
/// publication-order solver (rank/pagerank.h) at 1/2/4/8 threads, written
/// to BENCH_rank_scaling.json so the perf trajectory is tracked in-repo.
///
/// A full rank is: the TemporalCsr check (identity on generated corpora),
/// the per-row weights from the year-gap table (parallel over `threads`),
/// and one serial descending push pass — repeated, on the two dirty 100k
/// graphs, until the L1 change drops below the ranker's tolerance. Each
/// graph also reports the share of references left pointing to a newer
/// article and how many sweeps a plain power iteration needs to the same
/// tolerance.
///
/// Contracts asserted here, not just reported:
///
///   - the scores at every thread count are bit-identical to the
///     single-thread scores;
///   - on the clean corpora the scores lie within 1e-11 in L1 of a tight
///     power-iteration reference (tests/power_iteration_oracle.h, run to
///     an L1 change below 1e-15).
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/temporal_csr.h"
#include "power_iteration_oracle.h"
#include "test_util.h"
#include "util/timer.h"

using namespace scholar;
using namespace scholar::bench;

namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr double kSigma = 0.4;
constexpr double kReferenceTolerance = 1e-15;
constexpr double kL1Bound = 1e-11;

struct Row {
  const char* graph = "";
  size_t nodes = 0;
  size_t edges = 0;
  double upward_share = 0.0;  // references left pointing to a newer article
  int threads = 0;
  int passes = 0;
  double wall_ms = 0.0;
  bool bit_identical = false;  // vs the single-thread scores
  double l1_vs_reference = 0.0;
  // A plain power iteration stopped at the ranker's tolerance: its sweeps
  // and its own L1 distance to the reference.
  int power_iteration_sweeps = 0;
  double power_iteration_l1 = 0.0;
};

/// Best-of-`repeats` wall time of one full TWPR rank.
Row RunOne(const CitationGraph& graph, int threads, int repeats,
           std::vector<double>* scores) {
  Config config;
  config.SetInt("threads", threads);
  config.SetDouble("sigma", kSigma);
  auto ranker = MakeRanker("twpr", config).value();
  Row row;
  row.nodes = graph.num_nodes();
  row.edges = graph.num_edges();
  row.threads = threads;
  row.wall_ms = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    WallTimer timer;
    Result<RankResult> result = ranker->Rank(graph);
    const double ms = timer.ElapsedMillis();
    SCHOLAR_CHECK_OK(result.status());
    SCHOLAR_CHECK(result->converged) << "twpr did not converge";
    row.passes = result->iterations;
    row.wall_ms = std::min(row.wall_ms, ms);
    *scores = std::move(result->scores);
  }
  return row;
}

/// Times TWPR on `graph` at every thread count. Every row must match the
/// single-thread scores bit for bit. On a clean graph (no upward
/// reference) the one pass is exact, so the scores must also lie within
/// kL1Bound of the reference; on a dirty graph the repeated passes stop at
/// the ranker's tolerance, like the power iteration beside them, and the
/// distance is reported.
void BenchGraph(const char* name, const CitationGraph& graph, int repeats,
                std::vector<Row>* rows) {
  const size_t upward = testing_util::CountUpwardReferences(
      TemporalCsr(graph).sorted_graph());
  const double upward_share =
      graph.num_edges() == 0
          ? 0.0
          : static_cast<double>(upward) /
                static_cast<double>(graph.num_edges());
  std::printf("%s: %zu nodes, %zu edges, %.2f%% upward references\n", name,
              graph.num_nodes(), graph.num_edges(), 100.0 * upward_share);

  const std::vector<double> weights = oracle::TwprWeights(graph, kSigma);
  WallTimer reference_timer;
  const RankResult reference = oracle::PowerIteration(
      graph, weights, {}, 0.85, kReferenceTolerance, 5000);
  std::printf("  reference power iteration: %d sweeps, residual %.1e, "
              "%.0f ms\n",
              reference.iterations, reference.final_residual,
              reference_timer.ElapsedMillis());
  const RankResult stopped = oracle::PowerIteration(
      graph, weights, {}, 0.85, TwprOptions().power.tolerance, 5000);
  const double stopped_l1 = oracle::L1(stopped.scores, reference.scores);
  std::printf("  power iteration to tolerance %.0e: %d sweeps, "
              "l1_vs_reference=%.2e\n",
              TwprOptions().power.tolerance, stopped.iterations, stopped_l1);

  std::vector<double> serial;
  for (int threads : kThreadCounts) {
    std::vector<double> scores;
    Row row = RunOne(graph, threads, repeats, &scores);
    row.graph = name;
    row.upward_share = upward_share;
    row.power_iteration_sweeps = stopped.iterations;
    row.power_iteration_l1 = stopped_l1;
    if (threads == 1) serial = scores;
    row.bit_identical = scores == serial;
    row.l1_vs_reference = oracle::L1(scores, reference.scores);
    std::printf("  threads=%d wall_ms=%8.1f passes=%d identical=%s "
                "l1_vs_reference=%.2e\n",
                threads, row.wall_ms, row.passes,
                row.bit_identical ? "yes" : "NO", row.l1_vs_reference);
    SCHOLAR_CHECK(row.bit_identical)
        << "scores diverged from the single-thread scores at " << threads
        << " threads";
    if (upward == 0) {
      SCHOLAR_CHECK(row.l1_vs_reference <= kL1Bound)
          << "scores are " << row.l1_vs_reference
          << " from the power-iteration reference in L1 (contract: <= "
          << kL1Bound << ")";
    }
    rows->push_back(row);
  }
}

void BenchSize(size_t articles, int repeats, std::vector<Row>* rows) {
  std::printf("generating aminer corpus, n=%zu ...\n", articles);
  const Corpus corpus = MakeBenchCorpus("aminer", articles);
  BenchGraph("aminer", corpus.graph, repeats, rows);
}

/// Dirty inputs of `nodes` articles over 30 years, 10 references each on
/// average: MakeRandomDirtyGraph's mix (about 2% of references to one of
/// the next 50 articles, unknown years, duplicates) and a graph whose years
/// are drawn independently of the cited article, so about half of all
/// references point to a newer year.
void BenchDirty(size_t nodes, int repeats, std::vector<Row>* rows) {
  BenchGraph("random_dirty",
             testing_util::MakeRandomDirtyGraph(nodes, 10.0, 1990, 30, 1),
             repeats, rows);
  BenchGraph("shuffled_year",
             testing_util::MakeShuffledYearGraph(nodes, 10.0, 1990, 30, 1),
             repeats, rows);
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  SCHOLAR_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"rank_scaling\",\n"
               "  \"ranker\": \"twpr\",\n"
               "  \"solver\": \"publication_order\",\n"
               "  \"sigma\": %.2f,\n"
               "  \"tolerance\": %.0e,\n"
               "  \"reference_tolerance\": %.0e,\n"
               "  \"hardware_concurrency\": %u,\n",
               kSigma, TwprOptions().power.tolerance, kReferenceTolerance,
               std::thread::hardware_concurrency());
  WriteHostJson(f);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"graph\": \"%s\", \"nodes\": %zu, \"edges\": %zu, "
                 "\"upward_share\": %.4f, \"threads\": %d, "
                 "\"passes\": %d, \"wall_ms\": %.2f, "
                 "\"bit_identical\": %s, \"l1_vs_reference\": %.3e, "
                 "\"power_iteration_sweeps\": %d, "
                 "\"power_iteration_l1\": %.3e}%s\n",
                 r.graph, r.nodes, r.edges, r.upward_share, r.threads,
                 r.passes, r.wall_ms, r.bit_identical ? "true" : "false",
                 r.l1_vs_reference, r.power_iteration_sweeps,
                 r.power_iteration_l1, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  Banner("rank_scaling",
         "TWPR wall time through the publication-order solver across "
         "thread counts, with bit-identity and reference-distance gates");
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  std::vector<Row> rows;
  if (g_smoke) {
    BenchSize(2000, /*repeats=*/1, &rows);
    BenchDirty(2000, /*repeats=*/1, &rows);
  } else if (quick) {
    BenchSize(20000, /*repeats=*/1, &rows);
    BenchDirty(20000, /*repeats=*/1, &rows);
  } else {
    BenchSize(100000, /*repeats=*/5, &rows);
    BenchSize(1000000, /*repeats=*/3, &rows);
    BenchDirty(100000, /*repeats=*/5, &rows);
  }
  WriteJson(rows, "BENCH_rank_scaling.json");
  return 0;
}
