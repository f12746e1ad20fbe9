// Property tests for the ensemble's zero-copy temporal views: every base
// ranker must score a SnapshotView bitwise like the materialized snapshot
// it stands for, on every graph, slice count, thread count, warm-start
// mode, normalization scope, combiner and window. The oracle is a
// test-local base wrapper that ranks ExtractSnapshot of each view instead
// of the view itself.

#include "ensemble/ensemble_ranker.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include "core/registry.h"
#include "graph/temporal_csr.h"
#include "graph/time_slicer.h"
#include "rank/time_weighted_pagerank.h"
#include "test_util.h"
#include "util/rng.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeShuffledYearGraph;

/// Oracle base: ranks the materialized copy of each view — ExtractSnapshot
/// of the view's sorted parent, so node ids stay the view's — through the
/// wrapped base's full-graph path. The author and venue maps, which a view
/// leaves indexed by parent id, are restricted to the snapshot's papers.
class MaterializingRanker : public Ranker {
 public:
  explicit MaterializingRanker(std::shared_ptr<const Ranker> base)
      : base_(std::move(base)) {}

  std::string name() const override { return base_->name(); }

 private:
  Result<RankResult> RankImpl(const RankContext& ctx) const override {
    if (ctx.view == nullptr) {
      return Status::InvalidArgument("the oracle ranks snapshot views only");
    }
    const SnapshotView& view = *ctx.view;
    const Snapshot snap = ExtractSnapshot(view.temporal_csr()->sorted_graph(),
                                          view.boundary_year());
    RankContext sub = ctx;
    sub.view = nullptr;
    sub.graph = &snap.graph;
    PaperAuthors authors;
    if (ctx.authors != nullptr) {
      std::vector<std::vector<AuthorId>> lists(snap.to_parent.size());
      for (size_t s = 0; s < lists.size(); ++s) {
        auto span = ctx.authors->AuthorsOf(view.ToParent(snap.to_parent[s]));
        lists[s].assign(span.begin(), span.end());
      }
      authors = PaperAuthors::FromLists(lists);
      sub.authors = &authors;
    }
    std::vector<int32_t> venues;
    if (ctx.venues != nullptr) {
      for (NodeId s : snap.to_parent) {
        venues.push_back((*ctx.venues)[view.ToParent(s)]);
      }
      sub.venues = &venues;
    }
    return base_->Rank(sub);
  }

  std::shared_ptr<const Ranker> base_;
};

/// Author and venue maps for an n-article graph: 0–3 authors per paper
/// from a pool of n/4 (repeats allowed), venues in [-1, 6).
struct CorpusMaps {
  PaperAuthors authors;
  std::vector<int32_t> venues;
};

CorpusMaps MakeCorpusMaps(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<AuthorId>> lists(n);
  CorpusMaps maps;
  for (size_t p = 0; p < n; ++p) {
    const size_t count = rng.NextBounded(4);
    for (size_t i = 0; i < count; ++i) {
      lists[p].push_back(static_cast<AuthorId>(rng.NextBounded(n / 4 + 1)));
    }
    maps.venues.push_back(static_cast<int32_t>(rng.NextBounded(7)) - 1);
  }
  maps.authors = PaperAuthors::FromLists(lists);
  return maps;
}

/// Ranks one EnsembleOptions config with `base` and with its oracle and
/// requires bitwise equality of scores and per-snapshot details.
void ExpectViewMatchesMaterialized(std::shared_ptr<const Ranker> base,
                                   const CitationGraph& g,
                                   const EnsembleOptions& options,
                                   const std::string& label,
                                   const CorpusMaps* maps = nullptr) {
  RankContext ctx;
  ctx.graph = &g;
  if (maps != nullptr) {
    ctx.authors = &maps->authors;
    ctx.venues = &maps->venues;
  }

  EnsembleRanker view_ens(base, options);
  std::vector<EnsembleRanker::SnapshotDetail> view_details;
  Result<RankResult> view_result = view_ens.RankWithDetails(ctx, &view_details);
  ASSERT_TRUE(view_result.ok()) << label << ": "
                                << view_result.status().ToString();

  EnsembleRanker mat_ens(std::make_shared<MaterializingRanker>(base), options);
  std::vector<EnsembleRanker::SnapshotDetail> mat_details;
  Result<RankResult> mat_result = mat_ens.RankWithDetails(ctx, &mat_details);
  ASSERT_TRUE(mat_result.ok()) << label << ": "
                               << mat_result.status().ToString();

  EXPECT_EQ(view_result.value().iterations, mat_result.value().iterations)
      << label;
  // Bitwise, not approximate: both must execute identical arithmetic.
  EXPECT_TRUE(view_result.value().scores == mat_result.value().scores)
      << label;

  ASSERT_EQ(view_details.size(), mat_details.size()) << label;
  for (size_t i = 0; i < view_details.size(); ++i) {
    EXPECT_EQ(view_details[i].boundary_year, mat_details[i].boundary_year);
    EXPECT_EQ(view_details[i].num_nodes, mat_details[i].num_nodes);
    EXPECT_EQ(view_details[i].num_edges, mat_details[i].num_edges);
    EXPECT_EQ(view_details[i].iterations, mat_details[i].iterations);
  }
}

std::shared_ptr<const Ranker> TwprBase() {
  TwprOptions o;
  o.recency_jump = true;
  return std::make_shared<TimeWeightedPageRank>(o);
}

TEST(EnsembleViewTest, MatchesMaterializedAcrossGraphsSlicesAndThreads) {
  for (uint64_t seed : {1u, 2u}) {
    CitationGraph g = MakeShuffledYearGraph(250, 3.0, 2000, 12, seed);
    for (int num_slices : {1, 3, 5}) {
      for (int threads : {1, 2, 4, 8}) {
        for (bool warm : {false, true}) {
          EnsembleOptions o;
          o.num_slices = num_slices;
          o.threads = threads;
          o.warm_start = warm;
          ExpectViewMatchesMaterialized(
              TwprBase(), g, o,
              "seed=" + std::to_string(seed) +
                  " slices=" + std::to_string(num_slices) +
                  " threads=" + std::to_string(threads) +
                  " warm=" + std::to_string(warm));
        }
      }
    }
  }
}

TEST(EnsembleViewTest, MatchesMaterializedOnYearMonotoneGraphs) {
  // Identity fast path: node ids already year-sorted.
  CitationGraph g = MakeRandomGraph(300, 3.0, 1995, 10, 3);
  for (bool warm : {false, true}) {
    EnsembleOptions o;
    o.warm_start = warm;
    o.threads = 4;
    ExpectViewMatchesMaterialized(TwprBase(), g, o,
                                  "identity warm=" + std::to_string(warm));
  }
}

TEST(EnsembleViewTest, MatchesMaterializedForEveryViewCapableBase) {
  // Every registered base ranks views; the shuffled corpus carries the
  // author and venue maps FutureRank and VenueRank need.
  CitationGraph g = MakeShuffledYearGraph(220, 3.0, 2001, 9, 4);
  const CorpusMaps maps = MakeCorpusMaps(g.num_nodes(), 4);
  size_t bases = 0;
  for (const std::string& name : KnownRankerNames()) {
    if (name.starts_with("ens_")) continue;
    Result<std::shared_ptr<const Ranker>> base = MakeRanker(name);
    ASSERT_TRUE(base.ok()) << name << ": " << base.status().ToString();
    ++bases;
    for (int threads : {1, 4}) {
      for (bool warm : {false, true}) {
        EnsembleOptions o;
        o.num_slices = 4;
        o.threads = threads;
        o.warm_start = warm;
        ExpectViewMatchesMaterialized(
            base.value(), g, o,
            name + " threads=" + std::to_string(threads) +
                " warm=" + std::to_string(warm),
            &maps);
      }
    }
  }
  EXPECT_EQ(bases, 11u);
}

TEST(EnsembleViewTest, MatchesMaterializedAcrossScopesCombinersAndWindow) {
  CitationGraph g = MakeShuffledYearGraph(220, 3.0, 2000, 10, 5);
  for (NormalizationScope scope :
       {NormalizationScope::kSnapshot, NormalizationScope::kSliceCohort,
        NormalizationScope::kYearCohort}) {
    for (EnsembleCombiner combiner :
         {EnsembleCombiner::kMean, EnsembleCombiner::kRecencyWeighted}) {
      for (int window : {0, 2}) {
        EnsembleOptions o;
        o.num_slices = 5;
        o.scope = scope;
        o.combiner = combiner;
        o.window = window;
        o.threads = 2;
        ExpectViewMatchesMaterialized(
            TwprBase(), g, o,
            "scope=" + NormalizationScopeToString(scope) +
                " combiner=" + EnsembleCombinerToString(combiner) +
                " window=" + std::to_string(window));
      }
    }
  }
}

TEST(EnsembleViewTest, ViewPathIsThreadCountInvariant) {
  CitationGraph g = MakeShuffledYearGraph(250, 3.0, 2000, 10, 6);
  RankContext ctx;
  ctx.graph = &g;
  std::vector<double> serial_scores;
  for (bool warm : {false, true}) {
    for (int threads : {1, 2, 4, 8}) {
      EnsembleOptions o;
      o.warm_start = warm;
      o.threads = threads;
      EnsembleRanker ens(TwprBase(), o);
      Result<RankResult> result = ens.Rank(ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (threads == 1) {
        serial_scores = std::move(result.value().scores);
      } else {
        EXPECT_TRUE(result.value().scores == serial_scores)
            << "warm=" << warm << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace scholar
