// Thread-count determinism of katz, sceas and hits, built through the
// registry as the CLI builds them. Katz and SCEAS set up their rows on
// `threads` workers and HITS gathers in chunks on them; the scores at
// threads {2, 4, 8} must equal the single-thread scores bit for bit.

#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "core/registry.h"
#include "test_util.h"
#include "util/config.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

constexpr const char* kKernels[] = {"katz", "sceas", "hits"};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::vector<double> RunKernel(const std::string& kernel, const CitationGraph& g,
                              int threads) {
  Config config;
  config.SetInt("threads", threads);
  auto ranker = MakeRanker(kernel, config).value();
  return ranker->Rank(g).value().scores;
}

// Every thread count against threads=1, with the kernel and count in the
// failure message.
void ExpectBitIdenticalAcrossThreads(const CitationGraph& g,
                                     const std::string& label) {
  for (const char* kernel : kKernels) {
    const std::vector<double> serial = RunKernel(kernel, g, 1);
    ASSERT_EQ(serial.size(), g.num_nodes()) << kernel;
    for (int threads : kThreadCounts) {
      EXPECT_TRUE(RunKernel(kernel, g, threads) == serial)
          << label << ": " << kernel << " threads=" << threads;
    }
  }
}

TEST(KernelBitIdentityTest, BitIdenticalAcrossKernelsAndThreads) {
  // Big enough that every thread count gets real chunks of the hits
  // gather and of the katz/sceas row setup.
  ExpectBitIdenticalAcrossThreads(
      MakeRandomGraph(/*n=*/600, /*avg_degree=*/6, /*start_year=*/1990,
                      /*num_years=*/12, /*seed=*/7),
      "random");
}

TEST(KernelBitIdentityTest, TinyAndEdgeCaseGraphs) {
  // Dangling nodes, empty rows, fewer rows than threads.
  ExpectBitIdenticalAcrossThreads(MakeTinyGraph(), "tiny");
}

}  // namespace
}  // namespace scholar
