#include "ensemble/ensemble_ranker.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "graph/temporal_csr.h"
#include "rank/pagerank.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace scholar {
namespace {

/// Chunk size of the per-node ensemble loops (warm-start extraction,
/// scatter, accumulation); fixed so chunked reductions are thread-count
/// independent.
constexpr size_t kNodeGrain = 2048;

}  // namespace

Result<EnsembleCombiner> EnsembleCombinerFromString(const std::string& name) {
  if (name == "mean") return EnsembleCombiner::kMean;
  if (name == "recency") return EnsembleCombiner::kRecencyWeighted;
  return Status::InvalidArgument("unknown combiner '" + name + "'");
}

std::string EnsembleCombinerToString(EnsembleCombiner combiner) {
  switch (combiner) {
    case EnsembleCombiner::kMean:
      return "mean";
    case EnsembleCombiner::kRecencyWeighted:
      return "recency";
  }
  return "unknown";
}

Result<NormalizationScope> NormalizationScopeFromString(
    const std::string& name) {
  if (name == "snapshot") return NormalizationScope::kSnapshot;
  if (name == "cohort") return NormalizationScope::kSliceCohort;
  if (name == "year") return NormalizationScope::kYearCohort;
  return Status::InvalidArgument("unknown normalization scope '" + name +
                                 "'");
}

std::string NormalizationScopeToString(NormalizationScope scope) {
  switch (scope) {
    case NormalizationScope::kSnapshot:
      return "snapshot";
    case NormalizationScope::kSliceCohort:
      return "cohort";
    case NormalizationScope::kYearCohort:
      return "year";
  }
  return "unknown";
}

EnsembleRanker::EnsembleRanker(std::shared_ptr<const Ranker> base,
                               EnsembleOptions options)
    : base_(std::move(base)), options_(options) {
  SCHOLAR_CHECK(base_ != nullptr);
}

std::string EnsembleRanker::name() const { return "ens_" + base_->name(); }

Result<RankResult> EnsembleRanker::RankImpl(const RankContext& ctx) const {
  return RankWithDetails(ctx, nullptr);
}

Result<RankResult> EnsembleRanker::RankWithDetails(
    const RankContext& ctx, std::vector<SnapshotDetail>* details) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  if (ctx.view != nullptr) {
    return Status::InvalidArgument(
        "the ensemble slices a full graph; it cannot rank a snapshot view "
        "(RankContext.view)");
  }
  if (options_.num_slices < 1) {
    return Status::InvalidArgument("num_slices must be >= 1");
  }
  if (options_.combiner == EnsembleCombiner::kRecencyWeighted &&
      (options_.gamma <= 0.0 || options_.gamma > 1.0)) {
    return Status::InvalidArgument("gamma must be in (0, 1]");
  }
  const CitationGraph& g = *ctx.graph;
  if (g.num_nodes() == 0) return RankResult{};

  if (options_.window < 0) {
    return Status::InvalidArgument("window must be >= 0 (0 = all snapshots)");
  }
  SCHOLAR_ASSIGN_OR_RETURN(
      std::vector<Year> boundaries,
      ComputeSliceBoundaries(g, options_.num_slices, options_.partition));
  const size_t n = g.num_nodes();
  const size_t k = boundaries.size();
  const size_t workers = ResolveThreads(options_.threads);
  // The ensemble owns its pool outright: scratch.PoolFor() rebuilds its pool
  // whenever a base ranker asks for a different width, so lending scratch to
  // base rankers while also borrowing its pool would dangle.
  std::unique_ptr<ThreadPool> owned_pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers - 1) : nullptr;
  ThreadPool* pool = owned_pool.get();
  // Every base-ranker call reuses this scratch's buffers instead of
  // reallocating per snapshot.
  PowerIterationScratch scratch;

  // One index serves all k snapshots: each is a zero-copy prefix view of
  // the graph in publication order.
  const TemporalCsr tcsr(g);
  const CitationGraph& sg = tcsr.sorted_graph();

  // Everything below runs in year-sorted node space, where snapshot i is
  // the id prefix [0, sn_i) — no per-snapshot id maps. Only the final
  // scores are scattered back to parent ids; `authors` and `venues` reach
  // the base ranker untouched, indexed by parent id.
  //
  // First snapshot containing each article: the first boundary at or after
  // its publication year. boundaries is sorted ascending, so this is one
  // binary search per node.
  std::vector<size_t> first_snapshot(n, 0);
  ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      first_snapshot[v] = static_cast<size_t>(
          std::lower_bound(boundaries.begin(), boundaries.end(), sg.year(v)) -
          boundaries.begin());
    }
  });

  std::vector<double> accumulated(n, 0.0);
  std::vector<double> weight_sum(n, 0.0);
  // Raw scores of the previous snapshot; because snapshots are nested
  // prefixes, the warm start of the next snapshot is a direct prefix read.
  std::vector<double> prev_scores;

  RankResult result;
  result.converged = true;

  // Snapshots rank one after another, in index order, and each is folded
  // into the running totals before the next starts; inner parallelism
  // comes from the base ranker's own threads and from `pool`. The
  // floating-point accumulation order — and therefore the scores — is
  // independent of the thread count.
  for (size_t i = 0; i < k; ++i) {
    const SnapshotView view = tcsr.MakeView(boundaries[i]);
    const size_t sn = view.num_nodes();
    if (sn == 0) continue;

    RankContext sub_ctx;
    sub_ctx.view = &view;
    sub_ctx.authors = ctx.authors;
    sub_ctx.venues = ctx.venues;
    sub_ctx.now_year = boundaries[i];
    sub_ctx.scratch = &scratch;

    std::vector<double> initial;
    if (options_.warm_start && !prev_scores.empty()) {
      // Nodes new to this snapshot start at the mean previous score. The
      // mean is a chunked reduction combined in chunk order, so it is
      // exact across thread counts.
      initial.resize(sn);
      const size_t chunks = ChunkCount(sn, kNodeGrain);
      std::vector<double> part_total(chunks, 0.0);
      std::vector<size_t> part_known(chunks, 0);
      ParallelForChunks(pool, sn, kNodeGrain,
                        [&](size_t chunk, size_t begin, size_t end) {
        double total = 0.0;
        size_t known = 0;
        for (NodeId s = static_cast<NodeId>(begin); s < end; ++s) {
          const double prev = prev_scores[s];
          if (prev > 0.0) {
            total += prev;
            ++known;
          }
        }
        part_total[chunk] = total;
        part_known[chunk] = known;
      });
      double total = 0.0;
      size_t known = 0;
      for (size_t c = 0; c < chunks; ++c) {
        total += part_total[c];
        known += part_known[c];
      }
      const double fallback = known > 0
                                  ? total / static_cast<double>(known)
                                  : 1.0 / static_cast<double>(sn);
      ParallelFor(pool, sn, kNodeGrain, [&](size_t begin, size_t end) {
        for (NodeId s = static_cast<NodeId>(begin); s < end; ++s) {
          const double prev = prev_scores[s];
          initial[s] = prev > 0.0 ? prev : fallback;
        }
      });
      sub_ctx.initial_scores = &initial;
    }

    SCHOLAR_ASSIGN_OR_RETURN(RankResult sub, base_->Rank(sub_ctx));
    if (options_.warm_start) {
      prev_scores.assign(n, 0.0);
      ParallelFor(pool, sn, kNodeGrain, [&](size_t begin, size_t end) {
        for (NodeId s = static_cast<NodeId>(begin); s < end; ++s) {
          prev_scores[s] = sub.scores[s];
        }
      });
    }

    std::vector<double> normalized;
    if (options_.scope == NormalizationScope::kSnapshot) {
      normalized = NormalizeScores(sub.scores, options_.normalizer);
    } else {
      // Normalize each generation separately. A generation (publication
      // year, or first snapshot) is a contiguous id run of the sorted
      // prefix, so one pass finds the group bounds and no table is sized
      // by the year span. Groups touch disjoint slots of normalized, so
      // whole groups parallelize safely.
      const bool by_year = options_.scope == NormalizationScope::kYearCohort;
      std::vector<size_t> group_begin = {0};
      for (NodeId s = 1; s < sn; ++s) {
        const bool new_group = by_year
                                   ? sg.year(s) != sg.year(s - 1)
                                   : first_snapshot[s] != first_snapshot[s - 1];
        if (new_group) group_begin.push_back(s);
      }
      group_begin.push_back(sn);
      normalized.resize(sn);
      ParallelFor(pool, group_begin.size() - 1, 1, [&](size_t gb, size_t ge) {
        for (size_t gi = gb; gi < ge; ++gi) {
          const auto first = sub.scores.begin() + group_begin[gi];
          const auto last = sub.scores.begin() + group_begin[gi + 1];
          const std::vector<double> group_norm = NormalizeScores(
              std::vector<double>(first, last), options_.normalizer);
          std::copy(group_norm.begin(), group_norm.end(),
                    normalized.begin() + group_begin[gi]);
        }
      });
    }

    result.iterations += sub.iterations;
    result.converged = result.converged && sub.converged;
    result.final_residual = std::max(result.final_residual, sub.final_residual);
    if (details != nullptr) {
      details->push_back(
          {boundaries[i], sn, view.CountEdges(), sub.iterations});
    }
    const double weight =
        options_.combiner == EnsembleCombiner::kMean
            ? 1.0
            : std::pow(options_.gamma, static_cast<double>(k - 1 - i));
    ParallelFor(pool, sn, kNodeGrain, [&](size_t begin, size_t end) {
      for (NodeId s = static_cast<NodeId>(begin); s < end; ++s) {
        if (options_.window > 0 &&
            i >= first_snapshot[s] + static_cast<size_t>(options_.window)) {
          continue;  // beyond this article's contemporary window
        }
        accumulated[s] += weight * normalized[s];
        weight_sum[s] += weight;
      }
    });
  }

  // Scatter the sorted-space totals back to parent node ids (a bijection,
  // so the parallel writes are race-free). Every article appears in at
  // least the final snapshot, so the weight sum is positive; the guard
  // keeps degenerate subclasses safe.
  result.scores.resize(n);
  ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
    for (NodeId s = static_cast<NodeId>(begin); s < end; ++s) {
      result.scores[tcsr.ToParent(s)] =
          weight_sum[s] > 0.0 ? accumulated[s] / weight_sum[s] : 0.0;
    }
  });
  return result;
}

}  // namespace scholar
