#include "rank/pagerank.h"

#include <atomic>
#include <cmath>
#include <string>
#include <utility>

#include "graph/temporal_csr.h"
#include "util/parallel_for.h"

namespace scholar {

namespace {

/// Chunk size of every per-node parallel loop in the solver. Part of the
/// determinism contract: chunk geometry depends on (n, grain) only, never
/// on the thread count, so ordered per-chunk reductions group additions the
/// same way at any parallelism level.
constexpr size_t kNodeGrain = 2048;

/// Sums `partial[0 .. chunks)` in index order (fixed fp grouping).
double OrderedSum(const std::vector<double>& partial, size_t chunks) {
  double total = 0.0;
  for (size_t c = 0; c < chunks; ++c) total += partial[c];
  return total;
}

/// Starting score vector: `initial` L1-normalized, or uniform when it is
/// absent or has non-positive mass.
std::vector<double> BuildInitialScores(size_t n,
                                       const std::vector<double>& initial) {
  std::vector<double> scores(n, 1.0 / static_cast<double>(n));
  if (!initial.empty()) {
    double total = 0.0;
    bool valid = true;
    for (double v : initial) {
      if (v < 0.0) {
        valid = false;
        break;
      }
      total += v;
    }
    if (valid && total > 0.0) {
      for (NodeId v = 0; v < n; ++v) scores[v] = initial[v] / total;
    }
  }
  return scores;
}

/// The damped fixed-point loop shared by the full-graph and view solvers.
/// `inv_row[u]` is the inverted weighted out-degree of source u (0 for
/// dangling rows), `in_weights` the raw per-edge weights in in-edge order
/// (null = uniform). Each round stages `contrib[u] = inv_row[u] * scores[u]`
/// and hands the O(m) gather to the scratch-owned kernel::GatherEngine —
/// both solvers therefore form the per-edge term as
/// `w_in[p] * (inv_row[u] * scores[u])` through identical primitives, which
/// is what keeps the view path bit-identical to the materialized one.
Status RunPowerLoop(const GraphAccess& a, const std::vector<double>& jump,
                    const PowerIterationOptions& options, ThreadPool* pool,
                    PowerIterationScratch& s, std::vector<double>& scores,
                    RankResult& result, const double* inv_row,
                    const double* in_weights) {
  const size_t n = a.num_nodes;
  const double uniform = 1.0 / static_cast<double>(n);
  s.next.resize(n);
  s.contrib.resize(n);
  const size_t chunks = ChunkCount(n, kNodeGrain);
  s.partial.assign(chunks, 0.0);
  SCHOLAR_RETURN_NOT_OK(s.engine.Init(a, kernel::GatherDirection::kInEdges,
                                      options.kernel, pool));

  result.converged = false;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    // Stage the per-source contributions and collect the dangling mass as
    // ordered per-chunk partials.
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double dangling_part = 0.0;
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        s.contrib[u] = inv_row[u] * scores[u];
        if (s.dangling[u]) dangling_part += scores[u];
      }
      s.partial[chunk] = dangling_part;
    });
    const double dangling_mass = OrderedSum(s.partial, chunks);

    // Phase A: the O(m) pull-gather, in the engine's selected variant.
    const double* gathered = s.engine.Gather(s.contrib.data(), in_weights);

    const double teleport =
        options.damping * dangling_mass + (1.0 - options.damping);

    // Phase B (parallel): damp, teleport, and measure the L1 residual as
    // ordered per-chunk partials. Always full — teleport reaches every
    // node, so even adaptive sweeps apply it exactly.
    ParallelForChunks(pool, n, kNodeGrain,
                      [&](size_t chunk, size_t begin, size_t end) {
      double residual_part = 0.0;
      if (jump.empty()) {
        const double teleport_uniform = teleport * uniform;
        for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
          const double nv = options.damping * gathered[v] + teleport_uniform;
          residual_part += std::abs(nv - scores[v]);
          s.next[v] = nv;
        }
      } else {
        for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
          const double nv = options.damping * gathered[v] + teleport * jump[v];
          residual_part += std::abs(nv - scores[v]);
          s.next[v] = nv;
        }
      }
      s.partial[chunk] = residual_part;
    });
    const double residual = OrderedSum(s.partial, chunks);

    scores.swap(s.next);
    result.iterations = iter;
    result.final_residual = residual;
    if (residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return Status::OK();
}

/// Shared validation of the option/vector shapes common to both solvers.
Status ValidateSolverArgs(size_t n, const std::vector<double>& jump,
                          const PowerIterationOptions& options,
                          const std::vector<double>& initial_scores) {
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
  if (!initial_scores.empty() && initial_scores.size() != n) {
    return Status::InvalidArgument(
        "initial_scores size " + std::to_string(initial_scores.size()) +
        " != num_nodes " + std::to_string(n));
  }
  return Status::OK();
}

}  // namespace

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

Result<RankResult> WeightedPowerIteration(
    const CitationGraph& graph, const std::vector<double>& edge_weights,
    const std::vector<double>& jump, const PowerIterationOptions& options,
    const std::vector<double>& initial_scores,
    PowerIterationScratch* scratch) {
  const size_t n = graph.num_nodes();
  const size_t m = graph.num_edges();
  SCHOLAR_RETURN_NOT_OK(ValidateSolverArgs(n, jump, options, initial_scores));
  if (!edge_weights.empty() && edge_weights.size() != m) {
    return Status::InvalidArgument(
        "edge_weights size " + std::to_string(edge_weights.size()) +
        " != num_edges " + std::to_string(m));
  }
  if (n == 0) return RankResult{};

  PowerIterationScratch local_scratch;
  PowerIterationScratch& s = scratch != nullptr ? *scratch : local_scratch;
  ThreadPool* pool = s.PoolFor(ResolveThreads(options.threads));

  const std::vector<EdgeId>& out_offsets = graph.out_offsets();
  const std::vector<NodeId>& out_neighbors = graph.out_neighbors();
  const std::vector<EdgeId>& in_offsets = graph.in_offsets();
  const bool uniform_weights = edge_weights.empty();

  // Pass 1 (parallel): *inverted* weighted out-degree and dangling flag
  // per source (0.0 for dangling rows, so their gather terms vanish
  // exactly).
  s.row_weight.assign(n, 0.0);
  s.dangling.assign(n, 0);
  std::atomic<bool> negative_weight{false};
  ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
    if (uniform_weights) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        const double degree =
            static_cast<double>(out_offsets[u + 1] - out_offsets[u]);
        s.dangling[u] = degree <= 0.0 ? 1 : 0;
        s.row_weight[u] = degree <= 0.0 ? 0.0 : 1.0 / degree;
      }
      return;
    }
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      double row = 0.0;
      for (EdgeId e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
        const double w = edge_weights[e];
        if (w < 0.0) negative_weight.store(true, std::memory_order_relaxed);  // NOLINT(atomic-confinement): monotone one-way flag; readers check it only after the ParallelFor join, which orders the stores
        row += w;
      }
      s.dangling[u] = row <= 0.0 ? 1 : 0;
      s.row_weight[u] = row <= 0.0 ? 0.0 : 1.0 / row;
    }
  });
  if (negative_weight.load()) {
    return Status::InvalidArgument("negative edge weight");
  }

  // Pass 2 (one serial scatter, weighted only): the *raw* edge weights in
  // in-edge order. Mirrors the reverse-CSR construction of
  // CitationGraph::FromCsr — sources are scanned ascending, so
  // s.in_weights[p] lines up with in_neighbors[p] — and is exact even for
  // multi-edges, which a per-edge binary search would conflate. Uniform
  // weights need no per-edge array at all: the whole O(m) stream the old
  // transition precompute read each sweep is gone.
  const double* in_weights = nullptr;
  if (!uniform_weights) {
    s.in_weights.resize(m);
    s.cursor.assign(in_offsets.begin(), in_offsets.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      for (EdgeId e = out_offsets[u]; e < out_offsets[u + 1]; ++e) {
        s.in_weights[s.cursor[out_neighbors[e]]++] = edge_weights[e];
      }
    }
    in_weights = s.in_weights.data();
  }

  std::vector<double> scores = BuildInitialScores(n, initial_scores);
  RankResult result;
  const GraphAccess a = AccessOf(graph);
  SCHOLAR_RETURN_NOT_OK(RunPowerLoop(a, jump, options, pool, s, scores,
                                     result, s.row_weight.data(),
                                     in_weights));
  result.scores = std::move(scores);
  return result;
}

Result<RankResult> WeightedPowerIterationOnView(
    const SnapshotView& view, const std::vector<double>& out_edge_weights,
    const std::vector<double>& in_edge_weights, const std::vector<double>& jump,
    const PowerIterationOptions& options,
    const std::vector<double>& initial_scores, PowerIterationScratch* scratch) {
  const size_t n = view.num_nodes();
  SCHOLAR_RETURN_NOT_OK(ValidateSolverArgs(n, jump, options, initial_scores));
  const bool uniform_weights = out_edge_weights.empty();
  if (uniform_weights ? !in_edge_weights.empty() : in_edge_weights.empty()) {
    return Status::InvalidArgument(
        "out_edge_weights and in_edge_weights must both be set or both "
        "empty");
  }
  if (n == 0) return RankResult{};
  const size_t m = view.temporal_csr()->sorted_graph().num_edges();
  if (!uniform_weights &&
      (out_edge_weights.size() != m || in_edge_weights.size() != m)) {
    return Status::InvalidArgument(
        "view edge weight arrays must cover the parent graph: got " +
        std::to_string(out_edge_weights.size()) + " / " +
        std::to_string(in_edge_weights.size()) + " weights for " +
        std::to_string(m) + " parent edges");
  }

  PowerIterationScratch local_scratch;
  PowerIterationScratch& s = scratch != nullptr ? *scratch : local_scratch;
  ThreadPool* pool = s.PoolFor(ResolveThreads(options.threads));
  const GraphAccess a = AccessOf(view, &s.view_rows, pool);

  // Pass 1 (parallel): *inverted* weighted out-degree over the kept row
  // prefixes (0.0 for dangling rows, so the gather term vanishes exactly).
  // Identical staging to the full-graph solver, on the same values — which
  // is what keeps view scores bitwise equal to the materialized snapshot's.
  s.row_weight.assign(n, 0.0);
  s.dangling.assign(n, 0);
  std::atomic<bool> negative_weight{false};
  ParallelFor(pool, n, kNodeGrain, [&](size_t begin, size_t end) {
    if (uniform_weights) {
      for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
        const double degree = static_cast<double>(a.OutDegree(u));
        s.dangling[u] = degree <= 0.0 ? 1 : 0;
        s.row_weight[u] = degree <= 0.0 ? 0.0 : 1.0 / degree;
      }
      return;
    }
    for (NodeId u = static_cast<NodeId>(begin); u < end; ++u) {
      double row = 0.0;
      for (EdgeId e = a.out_begin[u]; e < a.out_end[u]; ++e) {
        const double w = out_edge_weights[e];
        if (w < 0.0) negative_weight.store(true, std::memory_order_relaxed);  // NOLINT(atomic-confinement): monotone one-way flag; readers check it only after the ParallelFor join, which orders the stores
        row += w;
      }
      s.dangling[u] = row <= 0.0 ? 1 : 0;
      s.row_weight[u] = row <= 0.0 ? 0.0 : 1.0 / row;
    }
  });
  if (negative_weight.load()) {
    return Status::InvalidArgument("negative edge weight");
  }

  std::vector<double> scores = BuildInitialScores(n, initial_scores);
  RankResult result;
  SCHOLAR_RETURN_NOT_OK(RunPowerLoop(
      a, jump, options, pool, s, scores, result, s.row_weight.data(),
      uniform_weights ? nullptr : in_edge_weights.data()));
  result.scores = std::move(scores);
  return result;
}

Result<RankResult> PageRankRanker::RankImpl(const RankContext& ctx) const {
  SCHOLAR_RETURN_NOT_OK(ValidateContext(ctx, /*requires_authors=*/false));
  const std::vector<double> no_initial;
  const std::vector<double>& initial =
      ctx.initial_scores != nullptr ? *ctx.initial_scores : no_initial;
  if (ctx.view != nullptr) {
    return WeightedPowerIterationOnView(*ctx.view, /*out_edge_weights=*/{},
                                        /*in_edge_weights=*/{}, /*jump=*/{},
                                        options_, initial, ctx.scratch);
  }
  return WeightedPowerIteration(*ctx.graph, /*edge_weights=*/{}, /*jump=*/{},
                                options_, initial, ctx.scratch);
}

}  // namespace scholar
