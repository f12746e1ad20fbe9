/// Figure 6 — solver convergence on both profiles. The power-iteration
/// reference (tests/power_iteration_oracle.h) decays its L1 residual
/// geometrically at about the damping factor, sweep after sweep. The
/// publication-order solver that pagerank, twpr and citerank run
/// (rank/pagerank.h) needs one pass on these corpora, whose references all
/// point back in time; its row reports the passes it took and its L1
/// distance to a reference run to a residual below 1e-15.
#include "bench_common.h"

#include "power_iteration_oracle.h"
#include "util/string_util.h"

using namespace scholar;
using namespace scholar::bench;

namespace {

constexpr int kSweeps = 128;
constexpr int kReported[] = {1, 2, 4, 8, 16, 32, 64, 96, 128};

/// Residual of every reference sweep, with the tolerance disabled.
std::vector<double> ReferenceResiduals(const CitationGraph& g, double sigma) {
  std::vector<double> residuals;
  oracle::PowerIteration(g, sigma > 0.0 ? oracle::TwprWeights(g, sigma)
                                        : std::vector<double>(),
                         {}, 0.85, 0.0, kSweeps, &residuals);
  return residuals;
}

struct SolverRow {
  int passes = 0;
  double l1 = 0.0;
  int reference_sweeps = 0;
};

SolverRow Solve(const std::string& ranker, const CitationGraph& g) {
  const RankResult solved = MakeRanker(ranker).value()->Rank(g).value();
  const RankResult tight = oracle::RankLinear(ranker, g);
  return {solved.iterations, oracle::L1(solved.scores, tight.scores),
          tight.iterations};
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  Banner("Figure 6", "power-iteration residual per sweep vs the "
                     "publication-order solver");
  Corpus aminer = MakeBenchCorpus("aminer", kAMinerArticles / 2);
  Corpus mag = MakeBenchCorpus("mag", kMagArticles / 2);

  const std::vector<double> a_pr = ReferenceResiduals(aminer.graph, 0.0);
  const std::vector<double> a_tw = ReferenceResiduals(aminer.graph, 0.4);
  const std::vector<double> m_pr = ReferenceResiduals(mag.graph, 0.0);
  const std::vector<double> m_tw = ReferenceResiduals(mag.graph, 0.4);
  std::printf("%-6s %13s %13s %13s %13s\n", "sweep", "aminer-pr",
              "aminer-twpr", "mag-pr", "mag-twpr");
  std::string csv = "iteration,aminer_pr,aminer_twpr,mag_pr,mag_twpr\n";
  for (int iters : kReported) {
    const size_t i = static_cast<size_t>(iters) - 1;
    std::printf("%-6d %13.3e %13.3e %13.3e %13.3e\n", iters, a_pr[i], a_tw[i],
                m_pr[i], m_tw[i]);
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%d,%.6e,%.6e,%.6e,%.6e\n", iters, a_pr[i],
                  a_tw[i], m_pr[i], m_tw[i]);
    csv += buf;
  }

  std::printf("\n%-10s %-9s %7s %13s %16s\n", "profile", "ranker", "passes",
              "L1_to_ref", "reference_sweeps");
  csv += "\nprofile,ranker,passes,l1_to_reference,reference_sweeps\n";
  for (const auto& [profile, corpus] :
       {std::pair<const char*, const Corpus*>{"aminer", &aminer},
        std::pair<const char*, const Corpus*>{"mag", &mag}}) {
    for (const char* ranker : {"pagerank", "twpr", "citerank"}) {
      const SolverRow row = Solve(ranker, corpus->graph);
      std::printf("%-10s %-9s %7d %13.3e %16d\n", profile, ranker, row.passes,
                  row.l1, row.reference_sweeps);
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s,%s,%d,%.6e,%d\n", profile, ranker,
                    row.passes, row.l1, row.reference_sweeps);
      csv += buf;
    }
  }
  std::printf("\n[csv]\n%s", csv.c_str());
  return 0;
}
