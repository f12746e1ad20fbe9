// Dirty-data contracts of the linear rankers (pagerank, twpr with and
// without the recency jump, citerank, katz, sceas) and their ensembles, on
// graphs with same-year chains in reverse id order, same-year cycles,
// backward citations, unknown-year citers and citees, duplicate
// references, dangling rows, TWPR rows whose weights underflow to 0 and
// isolated articles (test_util.h's MakeDirtyGraph and
// MakeRandomDirtyGraph):
//
//   * every rank returns OK with finite scores; base scores sum to 1;
//   * scores are bit-identical at threads {1, 2, 4, 8};
//   * scores lie within 1e-11 in L1 of the oracle's sweeps
//     (power_iteration_oracle.h), and so do the ensembles built on them.
//
// The solver repeats its Gauss–Seidel passes until the L1 change drops
// below `tolerance`. The default 1e-10 bounds only the last pass's change,
// and a bare same-year 3-cycle contracts by just d^3 per pass, so these
// graphs are ranked at tolerance 1e-12.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "ensemble/ensemble_ranker.h"
#include "graph/temporal_csr.h"
#include "graph/time_slicer.h"
#include "power_iteration_oracle.h"
#include "test_util.h"

namespace scholar {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr double kL1Bound = 1e-11;

struct Base {
  const char* name;    // registry name
  const char* oracle;  // oracle::RankLinear name
  bool recency_jump;
};
constexpr Base kBases[] = {{"pagerank", "pagerank", false},
                           {"twpr", "twpr", false},
                           {"twpr", "twpr_recency", true},
                           {"citerank", "citerank", false},
                           {"katz", "katz", false},
                           {"sceas", "sceas", false}};

Config BaseConfig(const Base& base, int threads) {
  Config config;
  config.SetInt("threads", threads);
  config.SetDouble("tolerance", 1e-12);
  config.SetInt("max_iterations", 1000);
  if (base.recency_jump) config.SetBool("recency_jump", true);
  return config;
}

std::vector<CitationGraph> DirtyGraphs() {
  std::vector<CitationGraph> graphs;
  graphs.push_back(testing_util::MakeDirtyGraph());
  for (uint64_t seed : {1u, 2u, 3u}) {
    graphs.push_back(
        testing_util::MakeRandomDirtyGraph(600, 4.0, 1990, 8, seed));
  }
  return graphs;
}

/// Ensemble base that ranks the materialized snapshot of each view with
/// the power-iteration oracle. ExtractSnapshot of the view's sorted parent
/// keeps the view's ids.
class OracleRanker : public Ranker {
 public:
  explicit OracleRanker(std::string oracle) : oracle_(std::move(oracle)) {}
  std::string name() const override { return oracle_; }

 private:
  Result<RankResult> RankImpl(const RankContext& ctx) const override {
    if (ctx.view == nullptr) {
      return Status::InvalidArgument("the oracle ranks snapshot views only");
    }
    const Snapshot snap = ExtractSnapshot(
        ctx.view->temporal_csr()->sorted_graph(), ctx.view->boundary_year());
    return oracle::RankLinear(oracle_, snap.graph, 1e-15, 5000,
                              ctx.EffectiveNow());
  }

  std::string oracle_;
};

TEST(DirtyDataTest, LinearRankersMatchOracleAtEveryThreadCount) {
  const std::vector<CitationGraph> graphs = DirtyGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const CitationGraph& g = graphs[gi];
    const size_t upward =
        testing_util::CountUpwardReferences(TemporalCsr(g).sorted_graph());
    ASSERT_GT(upward, 0u) << "graph " << gi;
    for (const Base& base : kBases) {
      const std::string label =
          std::string(base.oracle) + " graph " + std::to_string(gi);
      const RankResult reference = oracle::RankLinear(base.oracle, g);
      ASSERT_TRUE(reference.converged) << label;
      std::vector<double> serial;
      for (int threads : kThreadCounts) {
        auto ranker = MakeRanker(base.name, BaseConfig(base, threads));
        ASSERT_TRUE(ranker.ok()) << label;
        const Result<RankResult> result = (*ranker)->Rank(g);
        ASSERT_TRUE(result.ok()) << label << ": "
                                 << result.status().ToString();
        EXPECT_TRUE(result->converged) << label;
        double sum = 0.0;
        for (double s : result->scores) {
          EXPECT_TRUE(std::isfinite(s) && s >= 0.0) << label;
          sum += s;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << label;
        EXPECT_LE(oracle::L1(result->scores, reference.scores), kL1Bound)
            << label << " threads=" << threads;
        if (threads == 1) {
          serial = result->scores;
        } else {
          EXPECT_EQ(result->scores, serial)
              << label << " threads=" << threads;
        }
      }
    }
  }
}

TEST(DirtyDataTest, EnsemblesMatchOracleAtEveryThreadCount) {
  // Percentile normalization jumps at ties, so the L1 contract is checked
  // through the sum normalizer, which is linear in the base scores; the
  // default (percentile) ensembles must be OK, finite and thread-invariant.
  const std::vector<CitationGraph> graphs = DirtyGraphs();
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const CitationGraph& g = graphs[gi];
    for (const Base& base : kBases) {
      for (const char* scope : {"snapshot", "cohort", "year"}) {
        for (const char* partition : {"count", "span"}) {
          const std::string label = "ens_" + std::string(base.oracle) +
                                    " scope=" + scope + " partition=" +
                                    partition + " graph " +
                                    std::to_string(gi);
          EnsembleOptions options;
          options.scope = NormalizationScopeFromString(scope).value();
          options.partition = std::string(partition) == "span"
                                  ? PartitionStrategy::kEqualSpan
                                  : PartitionStrategy::kEqualCount;
          options.normalizer = NormalizerKind::kSum;
          const RankResult reference =
              EnsembleRanker(std::make_shared<OracleRanker>(base.oracle),
                             options)
                  .Rank(g)
                  .value();
          std::vector<double> serial;
          for (int threads : kThreadCounts) {
            Config config = BaseConfig(base, threads);
            config.Set("scope", scope);
            config.Set("partition", partition);
            const auto percentile =
                MakeRanker("ens_" + std::string(base.name), config);
            ASSERT_TRUE(percentile.ok()) << label;
            const Result<RankResult> ranked = (*percentile)->Rank(g);
            ASSERT_TRUE(ranked.ok()) << label << ": "
                                     << ranked.status().ToString();
            for (double s : ranked->scores) {
              EXPECT_TRUE(std::isfinite(s)) << label;
            }
            if (threads == 1) {
              serial = ranked->scores;
            } else {
              EXPECT_EQ(ranked->scores, serial)
                  << label << " threads=" << threads;
            }

            options.threads = threads;
            auto base_ranker = MakeRanker(base.name, config).value();
            const RankResult summed =
                EnsembleRanker(base_ranker, options).Rank(g).value();
            EXPECT_LE(oracle::L1(summed.scores, reference.scores), kL1Bound)
                << label << " threads=" << threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace scholar
