#ifndef SCHOLARRANK_ENSEMBLE_ENSEMBLE_RANKER_H_
#define SCHOLARRANK_ENSEMBLE_ENSEMBLE_RANKER_H_

#include <memory>
#include <string>
#include <vector>

#include "ensemble/normalizer.h"
#include "ensemble/time_partitioner.h"
#include "rank/ranker.h"

namespace scholar {

/// How per-snapshot normalized scores are combined into one final score.
enum class EnsembleCombiner {
  /// Plain mean over the snapshots containing the article.
  kMean,
  /// Recency-weighted mean: snapshot i (of k) gets weight gamma^(k-i),
  /// gamma in (0,1], so later (larger, more complete) snapshots count more.
  kRecencyWeighted,
};

Result<EnsembleCombiner> EnsembleCombinerFromString(const std::string& name);
std::string EnsembleCombinerToString(EnsembleCombiner combiner);

/// Which population a raw score is normalized against inside one snapshot.
enum class NormalizationScope {
  /// Against every article of the snapshot. Simple, but articles of
  /// different eras share one pool, so older articles keep their
  /// accumulation advantage inside every snapshot.
  kSnapshot,
  /// Against the articles of the same time slice only (the article's
  /// "generation"). Scores then measure within-era standing, which is the
  /// quantity that is comparable across eras — the core of the paper's
  /// fairness argument.
  kSliceCohort,
  /// Against articles of the same publication year — the finest generation
  /// granularity. Removes the residual within-slice age gradient that
  /// kSliceCohort leaves (articles from the first year of a slice are
  /// older than their slice-mates at every boundary).
  kYearCohort,
};

Result<NormalizationScope> NormalizationScopeFromString(
    const std::string& name);
std::string NormalizationScopeToString(NormalizationScope scope);

/// Parameters of the ensemble framework.
struct EnsembleOptions {
  int num_slices = 8;
  PartitionStrategy partition = PartitionStrategy::kEqualCount;
  NormalizerKind normalizer = NormalizerKind::kRankPercentile;
  NormalizationScope scope = NormalizationScope::kYearCohort;
  EnsembleCombiner combiner = EnsembleCombiner::kMean;
  /// Base of the recency weights (only for kRecencyWeighted).
  double gamma = 0.8;
  /// How many snapshots, counted from the first one containing an article,
  /// contribute to its score; 0 (the default) means all snapshots from the
  /// article's first appearance onward. A bounded window judges every
  /// article over the same stretch of its own life (its "contemporary"
  /// networks only) — stricter fairness at the cost of discarding the
  /// article's later history; the ablation bench (Table 4) quantifies the
  /// trade-off.
  int window = 0;
  /// Seed each snapshot's iteration with the previous (smaller) snapshot's
  /// scores. Purely a speedup for the iterative bases (hits, katz, sceas)
  /// — the fixed points are unchanged; the publication-order solver of
  /// pagerank, twpr and citerank ignores the seed.
  bool warm_start = true;
  /// Worker threads: 0 = hardware concurrency, 1 = serial. Snapshots rank
  /// one after another in index order, with or without warm starts; the
  /// per-snapshot warm-start extraction, cohort normalization and
  /// accumulation run on the pool, and each snapshot's solve uses the base
  /// ranker's own `threads` option (the registry's `threads=` key sets
  /// both). Scores are bit-identical at every setting.
  int threads = 0;
};

/// The paper's ensemble-enabled query-independent ranking framework.
///
/// The citation network is sliced into accumulative temporal snapshots
/// G_1 ⊆ … ⊆ G_k (G_k is the full graph). The base ranker runs on every
/// snapshot; its raw scores are normalized within each snapshot to be
/// size-comparable; an article's final score combines its normalized scores
/// over all snapshots that contain it.
///
/// Every snapshot is a zero-copy SnapshotView of one TemporalCsr built per
/// call, handed to the base through RankContext::view together with the
/// caller's `authors` and `venues` (indexed by parent id). So a graph gets
/// the same scores whether or not the context carries those maps.
///
/// Why this fixes the recency bias: a 2-year-old article is hopeless in the
/// full network (it has had no time to accumulate citations), but inside the
/// snapshot ending near its publication year it competes only against
/// near-contemporaries. Averaging across snapshots blends "how it stands
/// today" with "how it stood in its own era".
class EnsembleRanker : public Ranker {
 public:
  /// `base` ranks each snapshot; it must outlive this ranker (shared
  /// ownership).
  EnsembleRanker(std::shared_ptr<const Ranker> base,
                 EnsembleOptions options = {});

  /// "ens_<base>" (e.g. "ens_twpr").
  std::string name() const override;

  Result<RankResult> RankImpl(const RankContext& ctx) const override;

  /// Per-snapshot detail for diagnostics and the ablation bench.
  struct SnapshotDetail {
    Year boundary_year;
    size_t num_nodes;
    size_t num_edges;
    int iterations;
  };
  /// Like Rank() but also reports what each snapshot looked like.
  Result<RankResult> RankWithDetails(
      const RankContext& ctx, std::vector<SnapshotDetail>* details) const;

  const EnsembleOptions& options() const { return options_; }
  const Ranker& base() const { return *base_; }

 private:
  std::shared_ptr<const Ranker> base_;
  EnsembleOptions options_;
};

}  // namespace scholar

#endif  // SCHOLARRANK_ENSEMBLE_ENSEMBLE_RANKER_H_
