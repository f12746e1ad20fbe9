#include "ensemble/ensemble_ranker.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "graph/temporal_csr.h"
#include "rank/pagerank.h"
#include "rank/time_weighted_pagerank.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace scholar {
namespace {

/// Chunk size of the per-node ensemble loops (warm-start extraction,
/// scatter, accumulation); fixed so chunked reductions are thread-count
/// independent.
constexpr size_t kNodeGrain = 2048;

/// Everything one snapshot produces before it is folded into the ensemble.
struct SnapshotRun {
  SnapshotView view;
  RankResult sub;
  std::vector<double> normalized;
};

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
  const size_t workers = EffectiveThreads(options_.threads, ctx);
  // The ensemble owns its pool outright: scratch.PoolFor() rebuilds its pool
  // whenever a base ranker asks for a different width, so lending scratch to
  // base rankers while also borrowing its pool would dangle.
  std::unique_ptr<ThreadPool> owned_pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers - 1) : nullptr;
  ThreadPool* pool = owned_pool.get();
  // In the sequential (warm-start) mode every base-ranker call reuses this
  // scratch's buffers instead of reallocating per snapshot.
  PowerIterationScratch scratch;

  // One index serves all k snapshots: each is a zero-copy prefix view of
  // the year-sorted graph. TWPR's decay weights are cached once on that
  // graph and shared read-only by every snapshot rank (the cache is
  // thread-safe, so the parallel mode shares it too).
  const TemporalCsr tcsr(g);
  const CitationGraph& sg = tcsr.sorted_graph();
  TwprWeightCache twpr_cache;

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

  // Ranks one snapshot and normalizes its scores. Runs entirely on the
  // calling thread; inner parallelism is bounded by `sub_max_threads` (the
  // base ranker clamp) and `norm_pool` (the cohort-normalization pool).
  auto run_snapshot = [&](size_t i, SnapshotRun* run,
                          const std::vector<double>* initial,
                          int sub_max_threads,
                          PowerIterationScratch* sub_scratch,
                          ThreadPool* norm_pool) -> Status {
    RankContext sub_ctx;
    sub_ctx.view = &run->view;
    sub_ctx.authors = ctx.authors;
    sub_ctx.venues = ctx.venues;
    sub_ctx.twpr_cache = &twpr_cache;
    sub_ctx.now_year = boundaries[i];
    sub_ctx.max_threads = sub_max_threads;
    sub_ctx.scratch = sub_scratch;
    if (initial != nullptr) sub_ctx.initial_scores = initial;

    SCHOLAR_ASSIGN_OR_RETURN(run->sub, base_->Rank(sub_ctx));

    if (options_.scope == NormalizationScope::kSnapshot) {
      run->normalized = NormalizeScores(run->sub.scores, options_.normalizer);
      return Status::OK();
    }
    // Normalize each generation separately: gather the snapshot nodes of
    // every group (time slice or publication year), normalize within the
    // group, and scatter back. Groups touch disjoint slots of normalized,
    // so whole groups parallelize safely.
    run->normalized.assign(run->sub.scores.size(), 0.0);
    const bool by_year = options_.scope == NormalizationScope::kYearCohort;
    const Year min_year = sg.min_year();
    const size_t num_groups =
        by_year ? static_cast<size_t>(sg.max_year() - min_year) + 1 : k;
    std::vector<std::vector<NodeId>> groups(num_groups);
    for (NodeId s = 0; s < run->view.num_nodes(); ++s) {
      const size_t key = by_year
                             ? static_cast<size_t>(sg.year(s) - min_year)
                             : first_snapshot[s];
      groups[key].push_back(s);
    }
    ParallelFor(norm_pool, num_groups, 1, [&](size_t gb, size_t ge) {
      std::vector<double> group_scores;
      for (size_t gi = gb; gi < ge; ++gi) {
        const std::vector<NodeId>& group = groups[gi];
        if (group.empty()) continue;
        group_scores.clear();
        for (NodeId s : group) group_scores.push_back(run->sub.scores[s]);
        std::vector<double> group_norm =
            NormalizeScores(group_scores, options_.normalizer);
        for (size_t t = 0; t < group.size(); ++t) {
          run->normalized[group[t]] = group_norm[t];
        }
      }
    });
    return Status::OK();
  };

  // Folds one finished snapshot into the running totals, then releases its
  // memory. Called in snapshot-index order in both execution modes, so the
  // floating-point accumulation order — and therefore the scores — is
  // independent of the thread count.
  auto accumulate = [&](size_t i, SnapshotRun* run) {
    const size_t sn = run->view.num_nodes();
    result.iterations += run->sub.iterations;
    result.converged = result.converged && run->sub.converged;
    result.final_residual =
        std::max(result.final_residual, run->sub.final_residual);
    if (details != nullptr) {
      details->push_back(
          {boundaries[i], sn, run->view.CountEdges(), run->sub.iterations});
    }
    const double weight =
        options_.combiner == EnsembleCombiner::kMean
            ? 1.0
            : std::pow(options_.gamma, static_cast<double>(k - 1 - i));
    const std::vector<double>& normalized = run->normalized;
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
    *run = SnapshotRun{};
  };

  const bool parallel_snapshots =
      !options_.warm_start && workers > 1 && k > 1;
  if (parallel_snapshots) {
    // Without warm starts the k snapshot rankings are independent: rank
    // them concurrently (base ranker clamped to one thread each so the two
    // levels never oversubscribe), then fold in index order.
    std::vector<SnapshotRun> runs(k);
    std::vector<Status> statuses(k);
    ParallelForChunks(pool, k, 1, [&](size_t c, size_t, size_t) {
      runs[c].view = tcsr.MakeView(boundaries[c]);
      if (runs[c].view.num_nodes() == 0) return;
      statuses[c] = run_snapshot(c, &runs[c], /*initial=*/nullptr,
                                 /*sub_max_threads=*/1,
                                 /*sub_scratch=*/nullptr,
                                 /*norm_pool=*/nullptr);
    });
    for (size_t i = 0; i < k; ++i) {
      SCHOLAR_RETURN_NOT_OK(statuses[i]);
      if (runs[i].view.num_nodes() == 0) continue;
      accumulate(i, &runs[i]);
    }
  } else {
    for (size_t i = 0; i < k; ++i) {
      SnapshotRun run;
      run.view = tcsr.MakeView(boundaries[i]);
      const size_t sn = run.view.num_nodes();
      if (sn == 0) continue;

      std::vector<double> initial;
      const std::vector<double>* initial_ptr = nullptr;
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
        initial_ptr = &initial;
      }

      SCHOLAR_RETURN_NOT_OK(run_snapshot(i, &run, initial_ptr,
                                         ctx.max_threads, &scratch, pool));
      if (options_.warm_start) {
        prev_scores.assign(n, 0.0);
        ParallelFor(pool, sn, kNodeGrain, [&](size_t begin, size_t end) {
          for (NodeId s = static_cast<NodeId>(begin); s < end; ++s) {
            prev_scores[s] = run.sub.scores[s];
          }
        });
      }
      accumulate(i, &run);
    }
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
