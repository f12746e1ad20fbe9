#ifndef SCHOLARRANK_RANK_RANKER_H_
#define SCHOLARRANK_RANK_RANKER_H_

#include <string>
#include <vector>

#include "graph/bipartite.h"
#include "graph/citation_graph.h"
#include "graph/graph_access.h"
#include "util/status.h"

namespace scholar {

class PowerIterationScratch;  // rank/pagerank.h
class SnapshotView;           // graph/temporal_csr.h

/// Everything a ranker may consume. Exactly one of `graph` and `view` is
/// mandatory; rankers that need more (FutureRank needs `authors`) return
/// InvalidArgument when it is missing, so that capability mismatches surface
/// as Status, not crashes.
struct RankContext {
  const CitationGraph* graph = nullptr;
  /// Zero-copy temporal snapshot to rank instead of a full graph; every
  /// ranker accepts one. Node ids in scores/initial_scores are the view's
  /// (sorted-space) ids. Mutually exclusive with `graph`.
  const SnapshotView* view = nullptr;
  /// Optional paper-author map, indexed by parent id (see ToParent): its
  /// `num_papers()` must equal the node count of `graph`, or of the view's
  /// parent graph, when present.
  const PaperAuthors* authors = nullptr;
  /// Optional per-article venue index (-1 = unknown), indexed by parent id
  /// like `authors` and sized the same way. Required by VenueRank.
  const std::vector<int32_t>* venues = nullptr;
  /// "Current" year for recency terms; defaults to the graph's or view's
  /// max_year().
  Year now_year = kUnknownYear;
  /// Optional warm-start hint: a previous score vector for (a supergraph
  /// of) this graph. Only HITS reads it: it seeds its power iteration from
  /// it to converge in fewer rounds, and the fixed point does not change.
  /// The linear rankers solve in publication order and need no seed. Size
  /// must equal NumNodes() when present.
  const std::vector<double>* initial_scores = nullptr;
  /// Optional reusable solver state (buffers + worker pool) for the
  /// linear rankers (pagerank, twpr, citerank, katz, sceas); the ensemble
  /// shares one across its snapshot ranks so the O(n) solver buffers are
  /// allocated once, not k times. Never share one scratch between
  /// concurrent Rank calls.
  PowerIterationScratch* scratch = nullptr;

  /// Node count of whichever of graph/view is set (0 when neither is).
  size_t NumNodes() const;

  /// now_year with the default applied (graph/view max_year()).
  Year EffectiveNow() const;

  /// Index of ranked node `s` into `authors` and `venues`: the view's parent
  /// id, or `s` itself when ranking a full graph.
  NodeId ToParent(NodeId s) const;
};

/// Output of one ranking run.
struct RankResult {
  /// Importance score per node; higher is more important. For random-walk
  /// rankers the scores form a probability distribution (sum to 1).
  std::vector<double> scores;
  /// Power-iteration rounds or solver passes used; 0 for closed-form
  /// rankers.
  int iterations = 0;
  /// L1 change of the final iteration; 0 for closed-form rankers.
  double final_residual = 0.0;
  /// False when max_iterations was hit before reaching tolerance.
  bool converged = true;
};

/// A query-independent article ranker.
///
/// Implementations are immutable after construction (all parameters are
/// constructor arguments) and therefore safe to reuse across graphs and
/// across threads.
class Ranker {
 public:
  virtual ~Ranker();

  /// Stable identifier ("pagerank", "twpr", ...), used by the registry and
  /// in experiment output.
  virtual std::string name() const = 0;

  /// Ranks all articles of `ctx.graph` or `ctx.view`.
  Result<RankResult> Rank(const RankContext& ctx) const {
    return RankImpl(ctx);
  }

  /// Convenience overload for graph-only rankers.
  Result<RankResult> Rank(const CitationGraph& graph) const {
    RankContext ctx;
    ctx.graph = &graph;
    return RankImpl(ctx);
  }

 private:
  /// The algorithm. Implementations validate the context themselves (see
  /// ValidateContext).
  virtual Result<RankResult> RankImpl(const RankContext& ctx) const = 0;
};

/// Dense ranks (0 = best) from scores, descending; ties broken by node id so
/// results are deterministic.
std::vector<uint32_t> ScoresToRanks(const std::vector<double>& scores);

/// Rank percentiles in (0, 1]: best article -> 1.0, worst -> 1/n. Ties
/// broken by node id.
std::vector<double> RankPercentiles(const std::vector<double>& scores);

/// Midrank percentiles: tied scores share the average percentile of their
/// positions (so equal scores map to equal percentiles). Use this wherever
/// percentiles feed further computation — deterministic id tie-breaking
/// would otherwise inject a systematic bias into the large tie groups that
/// PageRank-style scores produce (e.g., all uncited articles tie exactly).
std::vector<double> MidrankPercentiles(const std::vector<double>& scores);

/// Indices of the k highest-scoring articles, best first (deterministic tie
/// break by node id). k is clamped to scores.size().
std::vector<NodeId> TopK(const std::vector<double>& scores, size_t k);

/// Validates a context (exactly one of graph/view set, optional-field
/// shapes). Shared by ranker implementations.
Status ValidateContext(const RankContext& ctx, bool requires_authors,
                       bool requires_venues = false);

/// The adjacency a ranker iterates: the graph's own CSR, or, for a view, the
/// parent CSR cut to the view's row prefixes (stored in `rows`). Borrows
/// the context's graph or view.
GraphAccess AccessOf(const RankContext& ctx, ViewRowEnds* rows);

}  // namespace scholar

#endif  // SCHOLARRANK_RANK_RANKER_H_
