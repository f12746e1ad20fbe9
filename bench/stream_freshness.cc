/// Streaming freshness — how long a newly arrived citation batch takes to
/// become servable (ingest + re-rank + snapshot publish), as a function of
/// batch size. Written to BENCH_stream_freshness.json so the freshness
/// trajectory is tracked in-repo.
///
/// The replay splits an AMiner-profile corpus into a 50% base graph plus
/// year-ordered suffix batches of a fixed node count, then runs the epoch
/// loop exactly as `scholar_cli stream` does: StreamingGraph::Ingest,
/// IncrementalRanker::RankWarm, ScoreSnapshot::Build +
/// SnapshotManager::Install. Freshness is the wall-clock sum of those
/// three stages for one epoch. The cold-rank baseline (what a naive
/// rebuild-per-batch deployment would pay) and the end-of-replay drift
/// against a cold oracle are recorded alongside. pagerank ranks each epoch
/// with one exact publication-order pass, so its drift is 0.
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/graph_builder.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "stream/edge_batch.h"
#include "stream/epoch_pipeline.h"
#include "stream/incremental_ranker.h"
#include "stream/streaming_graph.h"
#include "util/timer.h"

using namespace scholar;
using namespace scholar::bench;

namespace {

struct Row {
  size_t batch_nodes = 0;
  size_t epochs = 0;
  size_t final_nodes = 0;
  size_t final_edges = 0;
  double mean_freshness_ms = 0.0;
  double max_freshness_ms = 0.0;
  double mean_rank_ms = 0.0;
  double cold_rank_ms = 0.0;  // rebuild-per-batch baseline, final graph
  int warm_iterations_total = 0;
  int cold_iterations = 0;
  double max_abs_drift = 0.0;
};

/// Base graph = the oldest `n_base` articles; every suffix window of
/// `batch_nodes` articles becomes one EdgeBatch. Edges whose target lands
/// in a later window cannot be replayed under the suffix-only contract and
/// are dropped from the stream (the oracle ranks the streamed graph, so
/// the drift comparison stays exact).
struct Replay {
  CitationGraph base;
  std::vector<stream::EdgeBatch> batches;
};

Replay PlanReplay(const CitationGraph& graph, size_t n_base,
                  size_t batch_nodes) {
  const size_t n = graph.num_nodes();
  const std::vector<Year>& years = graph.years();
  Replay replay;
  GraphBuilder builder;
  for (size_t i = 0; i < n_base; ++i) builder.AddNode(years[i]);
  for (NodeId u = 0; u < static_cast<NodeId>(n_base); ++u) {
    for (NodeId v : graph.References(u)) {
      if (v < static_cast<NodeId>(n_base)) {
        SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
      }
    }
  }
  replay.base = std::move(builder).Build().value();
  uint64_t sequence = 1;
  for (size_t start = n_base; start < n; start += batch_nodes) {
    const size_t end = std::min(n, start + batch_nodes);
    stream::EdgeBatch batch;
    batch.sequence = sequence++;
    batch.node_years.assign(years.begin() + start, years.begin() + end);
    for (NodeId u = static_cast<NodeId>(start); u < static_cast<NodeId>(end);
         ++u) {
      for (NodeId v : graph.References(u)) {
        if (v < static_cast<NodeId>(end)) batch.edges.push_back({u, v});
      }
    }
    replay.batches.push_back(std::move(batch));
  }
  return replay;
}

Row RunReplay(const CitationGraph& graph, size_t batch_nodes) {
  Row row;
  row.batch_nodes = batch_nodes;
  Replay replay = PlanReplay(graph, graph.num_nodes() / 2, batch_nodes);

  stream::IncrementalRankerOptions options;
  options.ranker = "pagerank";
  auto ranker = stream::IncrementalRanker::Create(options).value();
  stream::StreamingGraph streaming(std::move(replay.base));
  serve::SnapshotManager manager;
  stream::EpochPublisher publisher =
      [&manager](const CitationGraph& g, const RankResult& r,
                 const stream::EpochStats& s) -> Status {
    RankingOutput ranking;
    ranking.ranks = ScoresToRanks(r.scores);
    ranking.percentiles = RankPercentiles(r.scores);
    ranking.scores = r.scores;
    serve::SnapshotMeta meta;
    meta.snapshot_id = s.epoch;
    meta.ranker_name = "pagerank";
    SCHOLAR_ASSIGN_OR_RETURN(
        serve::ScoreSnapshot snapshot,
        serve::ScoreSnapshot::Build(g, ranking, std::move(meta)));
    manager.Install(std::move(snapshot));
    return Status::OK();
  };
  stream::EpochPipeline pipeline(&streaming, &ranker, std::move(publisher));
  SCHOLAR_CHECK_OK(pipeline.Bootstrap());

  double total_ms = 0.0;
  double total_rank_ms = 0.0;
  for (stream::EdgeBatch& batch : replay.batches) {
    Result<stream::EpochStats> stats = pipeline.Step(std::move(batch));
    SCHOLAR_CHECK_OK(stats.status());
    const double freshness = stats->apply_ms + stats->rank_ms +
                             stats->publish_ms;
    total_ms += freshness;
    total_rank_ms += stats->rank_ms;
    row.max_freshness_ms = std::max(row.max_freshness_ms, freshness);
    ++row.epochs;
  }
  row.mean_freshness_ms = row.epochs == 0 ? 0.0 : total_ms / row.epochs;
  row.mean_rank_ms = row.epochs == 0 ? 0.0 : total_rank_ms / row.epochs;
  row.warm_iterations_total = pipeline.total_iterations();
  row.final_nodes = streaming.num_nodes();
  row.final_edges = streaming.num_edges();

  auto cold = stream::IncrementalRanker::Create(options).value();
  WallTimer timer;
  RankResult oracle = cold.RankCold(streaming.graph()).value();
  row.cold_rank_ms = timer.ElapsedMillis();
  row.cold_iterations = oracle.iterations;
  const std::vector<double>& warm = ranker.previous_scores();
  for (size_t i = 0; i < warm.size(); ++i) {
    row.max_abs_drift =
        std::max(row.max_abs_drift, std::fabs(warm[i] - oracle.scores[i]));
  }
  return row;
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  SCHOLAR_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"stream_freshness\",\n"
               "  \"ranker\": \"pagerank\",\n"
               "  \"profile\": \"aminer\",\n"
               "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  WriteHostJson(f);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"batch_nodes\": %zu, \"epochs\": %zu, "
        "\"final_nodes\": %zu, \"final_edges\": %zu, "
        "\"mean_freshness_ms\": %.3f, \"max_freshness_ms\": %.3f, "
        "\"mean_rank_ms\": %.3f, \"cold_rank_ms\": %.3f, "
        "\"warm_iterations_total\": %d, \"cold_iterations\": %d, "
        "\"max_abs_drift\": %.3e}%s\n",
        r.batch_nodes, r.epochs, r.final_nodes, r.final_edges,
        r.mean_freshness_ms, r.max_freshness_ms, r.mean_rank_ms,
        r.cold_rank_ms, r.warm_iterations_total, r.cold_iterations,
        r.max_abs_drift, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  const size_t articles = g_smoke ? 2000 : 60000;
  const std::vector<size_t> batch_sizes =
      g_smoke ? std::vector<size_t>{100, 400}
              : std::vector<size_t>{500, 2000, 8000};

  std::printf("generating aminer corpus, n=%zu ...\n", articles);
  const Corpus corpus = MakeBenchCorpus("aminer", articles);
  std::printf("  graph: %zu nodes, %zu edges\n", corpus.graph.num_nodes(),
              corpus.graph.num_edges());

  std::vector<Row> rows;
  std::printf(
      "batch_nodes  epochs  mean_ms  max_ms  rank_ms  cold_ms  warm_it  "
      "cold_it  drift\n");
  for (size_t batch_nodes : batch_sizes) {
    Row row = RunReplay(corpus.graph, batch_nodes);
    std::printf("%11zu %7zu %8.2f %7.2f %8.2f %8.2f %8d %8d  %.2e\n",
                row.batch_nodes, row.epochs, row.mean_freshness_ms,
                row.max_freshness_ms, row.mean_rank_ms, row.cold_rank_ms,
                row.warm_iterations_total, row.cold_iterations,
                row.max_abs_drift);
    rows.push_back(std::move(row));
  }
  WriteJson(rows, "BENCH_stream_freshness.json");
  return 0;
}
