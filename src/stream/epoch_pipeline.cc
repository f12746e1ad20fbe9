#include "stream/epoch_pipeline.h"

#include <algorithm>
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

std::vector<NodeId> EpochPipeline::DirtyNodes(const CitationGraph& graph,
                                              size_t old_n,
                                              size_t old_e) const {
  std::vector<NodeId> dirty;
  dirty.reserve((graph.num_nodes() - old_n) +
                (graph.num_edges() - old_e));
  for (size_t v = old_n; v < graph.num_nodes(); ++v) {
    dirty.push_back(static_cast<NodeId>(v));
  }
  const std::vector<NodeId>& targets = graph.out_neighbors();
  dirty.insert(dirty.end(), targets.begin() + static_cast<long>(old_e),
               targets.end());
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
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
  Result<RankResult> ranked =
      ranker_->mode() == "frontier"
          ? ranker_->RankWarm(g, DirtyNodes(g, old_n, old_e))
          : ranker_->RankWarm(g);
  SCHOLAR_RETURN_NOT_OK(ranked.status());
  stats.rank_ms = timer.ElapsedMillis();
  stats.iterations = ranked->iterations;
  stats.converged = ranked->converged;

  timer.Reset();
  SCHOLAR_RETURN_NOT_OK(publisher_(g, *ranked, stats));
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
