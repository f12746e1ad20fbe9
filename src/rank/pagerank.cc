#include "rank/pagerank.h"

#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "graph/temporal_csr.h"
#include "util/parallel_for.h"

namespace scholar {

namespace {

/// Chunk size of the per-row loop; chunk geometry depends on (n, grain)
/// only, never on the thread count.
constexpr size_t kNodeGrain = 2048;

Status ValidateSolverArgs(size_t n, const std::vector<double>& jump,
                          const PowerIterationOptions& options) {
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0,1), got " +
                                   std::to_string(options.damping));
  }
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (!jump.empty()) {
    if (jump.size() != n) {
      return Status::InvalidArgument("jump size " +
                                     std::to_string(jump.size()) +
                                     " != num_nodes " + std::to_string(n));
    }
    double sum = 0.0;
    for (double j : jump) {
      if (j < 0.0) return Status::InvalidArgument("negative jump probability");
      sum += j;
    }
    if (std::abs(sum - 1.0) > 1e-6) {
      return Status::InvalidArgument("jump vector sums to " +
                                     std::to_string(sum) + ", expected 1");
    }
  }
  return Status::OK();
}

/// One descending pass: y[u] = b[u] + acc[u], then u's damped, row-scaled
/// score is pushed to its kept references. acc[u] is consumed as it is
/// read, so mass pushed up to an already-set row stays for the next pass.
void Pass(const CitationGraph& g, const YearGapWeights* weights,
          const std::vector<double>& jump, PowerIterationScratch& s,
          double* y) {
  double* acc = s.acc.data();
  const EdgeId* begin = g.out_offsets().data();
  const NodeId* nbrs = g.out_neighbors().data();
  const Year* years = g.years().data();
  for (size_t u = s.row_end.size(); u-- > 0;) {
    const double yu = (jump.empty() ? 1.0 : jump[u]) + acc[u];
    acc[u] = 0.0;
    y[u] = yu;
    const double push = s.row_scale[u] * yu;
    if (weights == nullptr) {
      for (EdgeId e = begin[u]; e < s.row_end[u]; ++e) acc[nbrs[e]] += push;
    } else {
      const Year tu = years[u];
      for (EdgeId e = begin[u]; e < s.row_end[u]; ++e) {
        acc[nbrs[e]] += (*weights)(tu, years[nbrs[e]]) * push;
      }
    }
  }
}

}  // namespace

YearGapWeights::YearGapWeights(double sigma, const std::vector<Year>& years)
    : sigma_(sigma) {
  Year lo = kUnknownYear;
  Year hi = kUnknownYear;
  for (Year year : years) {
    if (year == kUnknownYear) continue;
    lo = lo == kUnknownYear ? year : std::min(lo, year);
    hi = std::max(hi, year);
  }
  // A corrupt year far from the rest must not size the table.
  constexpr int64_t kMaxTabledGap = 1024;
  table_.resize(lo == kUnknownYear
                    ? 1
                    : static_cast<size_t>(
                          std::min(YearGap(hi, lo), kMaxTabledGap)) + 1);
  for (size_t gap = 0; gap < table_.size(); ++gap) {
    table_[gap] = std::exp(-sigma * static_cast<double>(gap));
  }
}

ThreadPool* PowerIterationScratch::PoolFor(size_t workers) {
  if (workers <= 1) return nullptr;
  const size_t helpers = workers - 1;  // the calling thread participates
  if (pool_ == nullptr || pool_workers_ != helpers) {
    pool_ = std::make_unique<ThreadPool>(helpers);
    pool_workers_ = helpers;
  }
  return pool_.get();
}

std::vector<double> ExtendScoresForGrownGraph(
    const std::vector<double>& old_scores, size_t new_num_nodes) {
  std::vector<double> scores(new_num_nodes, 0.0);
  if (new_num_nodes == 0) return scores;
  double total = 0.0;
  const size_t copied = std::min(old_scores.size(), new_num_nodes);
  for (size_t i = 0; i < copied; ++i) {
    scores[i] = std::max(0.0, old_scores[i]);
    total += scores[i];
  }
  if (total <= 0.0) {
    std::fill(scores.begin(), scores.end(),
              1.0 / static_cast<double>(new_num_nodes));
    return scores;
  }
  const double mean = total / static_cast<double>(copied);
  for (size_t i = copied; i < new_num_nodes; ++i) scores[i] = mean;
  double new_total = total + mean * static_cast<double>(new_num_nodes - copied);
  for (double& s : scores) s /= new_total;
  return scores;
}

Result<RankResult> SolveInPublicationOrder(const SnapshotView& view,
                                           const YearGapWeights* weights,
                                           const std::vector<double>& jump,
                                           const PowerIterationOptions& options,
                                           PowerIterationScratch* scratch) {
  const size_t n = view.num_nodes();
  SCHOLAR_RETURN_NOT_OK(ValidateSolverArgs(n, jump, options));
  if (n == 0) return RankResult{};

  PowerIterationScratch local_scratch;
  PowerIterationScratch& s = scratch != nullptr ? *scratch : local_scratch;
  ThreadPool* pool = s.PoolFor(ResolveThreads(options.threads));
  const CitationGraph& g = view.temporal_csr()->sorted_graph();

  // Per row: the kept prefix, its weight, and whether it reaches up. Rows
  // ascend, so a row's upward references are its kept suffix at or above u.
  s.row_end.resize(n);
  s.row_scale.resize(n);
  const size_t chunks = ChunkCount(n, kNodeGrain);
  s.partial.assign(chunks, 0);
  ParallelForChunks(pool, n, kNodeGrain,
                    [&](size_t chunk, size_t begin, size_t end) {
    size_t upward = 0;
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      const std::span<const NodeId> row = view.References(u);
      s.row_end[u] = g.out_offsets()[u] + row.size();
      double row_weight = static_cast<double>(row.size());
      if (weights != nullptr) {
        row_weight = 0.0;
        for (NodeId v : row) row_weight += (*weights)(g.year(u), g.year(v));
      }
      s.row_scale[u] = row_weight > 0.0 ? options.damping / row_weight : 0.0;
      upward += !row.empty() && row.back() >= u;
    }
    s.partial[chunk] = upward;
  });
  bool upward = false;
  for (size_t c = 0; c < chunks; ++c) upward = upward || s.partial[c] != 0;

  s.acc.assign(n, 0.0);
  if (upward) s.previous.assign(n, 1.0 / static_cast<double>(n));
  RankResult result;
  result.scores.resize(n);
  result.converged = false;
  for (int pass = 1; pass <= options.max_iterations; ++pass) {
    Pass(g, weights, jump, s, result.scores.data());
    double total = 0.0;
    for (double y : result.scores) total += y;
    double residual = 0.0;
    for (size_t u = 0; u < n; ++u) {
      result.scores[u] /= total;
      if (upward) residual += std::abs(result.scores[u] - s.previous[u]);
    }
    result.iterations = pass;
    result.final_residual = residual;
    // With upward references the first pass has no predecessor to
    // compare with (its residual is taken against the uniform vector), so
    // at least two passes run.
    if (!upward || (pass > 1 && residual < options.tolerance)) {
      result.converged = true;
      break;
    }
    // The next pass sets every y afresh; only acc carries over.
    if (pass < options.max_iterations) s.previous.swap(result.scores);
  }
  return result;
}

Result<RankResult> RankInPublicationOrder(
    const RankContext& ctx,
    const std::function<Result<RankResult>(const SnapshotView&)>& solve) {
  if (ctx.NumNodes() == 0) return RankResult{};
  if (ctx.view != nullptr) return solve(*ctx.view);
  const TemporalCsr tcsr(*ctx.graph);
  SCHOLAR_ASSIGN_OR_RETURN(RankResult result, solve(tcsr.FullView()));
  if (!tcsr.is_identity()) {
    std::vector<double> scores(result.scores.size());
    for (NodeId v = 0; v < scores.size(); ++v) {
      scores[tcsr.ToParent(v)] = result.scores[v];
    }
    result.scores = std::move(scores);
  }
  return result;
}

Result<RankResult> PageRankRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  return RankInPublicationOrder(ctx, [&](const SnapshotView& view) {
    return SolveInPublicationOrder(view, /*weights=*/nullptr, /*jump=*/{},
                                   options_, ctx.scratch);
  });
}

}  // namespace scholar
