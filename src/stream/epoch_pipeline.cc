#include "stream/epoch_pipeline.h"

#include <utility>

#include "util/timer.h"

namespace scholar {
namespace stream {

EpochPipeline::EpochPipeline(StreamingGraph* graph, IncrementalRanker* ranker,
                             EpochPublisher publisher)
    : graph_(graph), ranker_(ranker), publisher_(std::move(publisher)) {}

Status EpochPipeline::Bootstrap() {
  EpochStats stats;
  stats.epoch = next_epoch_;
  stats.graph_version = graph_->version();
  const CitationGraph& g = graph_->graph();
  stats.num_nodes = g.num_nodes();
  stats.num_edges = g.num_edges();
  WallTimer timer;  // NOLINT(determinism): durations go to EpochStats, never into scores
  SCHOLAR_ASSIGN_OR_RETURN(RankResult result, ranker_->RankCold(g));
  stats.rank_ms = timer.ElapsedMillis();
  stats.iterations = result.iterations;
  stats.converged = result.converged;
  timer.Reset();
  SCHOLAR_RETURN_NOT_OK(publisher_(g, result, stats));
  stats.publish_ms = timer.ElapsedMillis();
  history_.push_back(stats);
  ++next_epoch_;
  return Status::OK();
}

Result<EpochStats> EpochPipeline::Step(EdgeBatch batch) {
  EpochStats stats;
  stats.epoch = next_epoch_;
  const size_t old_n = graph_->num_nodes();
  const size_t old_e = graph_->num_edges();

  WallTimer timer;  // NOLINT(determinism): durations go to EpochStats, never into scores
  SCHOLAR_ASSIGN_OR_RETURN(stats.batches_applied,
                           graph_->Ingest(std::move(batch)));
  stats.apply_ms = timer.ElapsedMillis();
  stats.graph_version = graph_->version();
  stats.nodes_added = graph_->num_nodes() - old_n;
  stats.edges_added = graph_->num_edges() - old_e;
  stats.num_nodes = graph_->num_nodes();
  stats.num_edges = graph_->num_edges();
  if (stats.batches_applied == 0) {
    // Staged: nothing new is rankable; the previous publish keeps serving.
    history_.push_back(stats);
    ++next_epoch_;
    return stats;
  }

  const CitationGraph& g = graph_->graph();
  timer.Reset();
  SCHOLAR_ASSIGN_OR_RETURN(RankResult ranked, ranker_->RankWarm(g));
  stats.rank_ms = timer.ElapsedMillis();
  stats.iterations = ranked.iterations;
  stats.converged = ranked.converged;

  timer.Reset();
  SCHOLAR_RETURN_NOT_OK(publisher_(g, ranked, stats));
  stats.publish_ms = timer.ElapsedMillis();
  history_.push_back(stats);
  ++next_epoch_;
  return stats;
}

int EpochPipeline::total_iterations() const {
  int total = 0;
  for (const EpochStats& stats : history_) total += stats.iterations;
  return total;
}

}  // namespace stream
}  // namespace scholar
