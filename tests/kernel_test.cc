// Property suite for the iteration engine (src/rank/kernel/).
//
// The engine's contracts, checked across every kernel that gathers
// through it (katz, sceas, hits) and across thread counts {1, 2, 4, 8}:
//
//   * scalar vs SIMD (double): bit-identical — both reduce each row
//     through the same lane-striped addition tree;
//   * float score mirror: <= 1e-6 absolute drift vs the double path;
//   * adaptive convergence: final scores within tolerance of the
//     fixed-sweep reference.

#include "rank/kernel/kernel_options.h"

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "core/registry.h"
#include "rank/kernel/simd.h"
#include "test_util.h"
#include "util/config.h"

namespace scholar {
namespace {

using testing_util::MakeRandomGraph;
using testing_util::MakeTinyGraph;

constexpr const char* kEngineKernels[] = {"katz", "sceas", "hits"};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

Config KernelConfig(const std::string& simd, const std::string& precision,
                    bool adaptive, int threads) {
  Config config;
  config.Set("simd", simd);
  config.Set("score_precision", precision);
  config.SetBool("adaptive", adaptive);
  config.SetInt("threads", threads);
  return config;
}

std::vector<double> RunKernel(const std::string& kernel, const CitationGraph& g,
                        const Config& config) {
  auto ranker = MakeRanker(kernel, config).value();
  return ranker->Rank(g).value().scores;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

// Exact (bit-level) equality, with a useful message on failure.
void ExpectBitIdentical(const std::vector<double>& got,
                        const std::vector<double>& want,
                        const std::string& label) {
  EXPECT_TRUE(got == want) << label
                           << ": max abs diff = " << MaxAbsDiff(got, want);
}

CitationGraph TestGraph() {
  // Big enough that every thread count gets real chunks and rows span
  // several SIMD strips; small enough that the full matrix stays fast.
  return MakeRandomGraph(/*n=*/600, /*avg_degree=*/6, /*start_year=*/1990,
                         /*num_years=*/12, /*seed=*/7);
}

// --- scalar vs SIMD bit-identity (double) -------------------------------

TEST(KernelBitIdentityTest, SimdMatchesScalarAcrossKernelsAndThreads) {
  const CitationGraph g = TestGraph();
  std::vector<std::string> simd_modes = {"scalar", "auto"};
  if (kernel::DetectSimdLevel() == kernel::SimdLevel::kAvx2) {
    simd_modes.push_back("avx2");
  }
  for (const char* kernel : kEngineKernels) {
    const std::vector<double> oracle =
        RunKernel(kernel, g, KernelConfig("scalar", "double", false, 1));
    ASSERT_EQ(oracle.size(), g.num_nodes()) << kernel;
    for (const std::string& simd : simd_modes) {
      for (int threads : kThreadCounts) {
        const std::vector<double> scores = RunKernel(
            kernel, g, KernelConfig(simd, "double", false, threads));
        ExpectBitIdentical(scores, oracle,
                           std::string(kernel) + " simd=" + simd +
                               " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(KernelBitIdentityTest, TinyAndEdgeCaseGraphs) {
  // Dangling nodes, empty rows, rows shorter than one SIMD strip.
  const CitationGraph g = MakeTinyGraph();
  for (const char* kernel : kEngineKernels) {
    const std::vector<double> oracle =
        RunKernel(kernel, g, KernelConfig("scalar", "double", false, 1));
    const std::vector<double> simd =
        RunKernel(kernel, g, KernelConfig("auto", "double", false, 2));
    ExpectBitIdentical(simd, oracle, std::string(kernel) + " tiny");
  }
}

// --- float score mirror drift bound -------------------------------------

TEST(KernelFloatDriftTest, FloatScoresWithinBound) {
  const CitationGraph g = TestGraph();
  constexpr double kDriftBound = 1e-6;
  for (const char* kernel : kEngineKernels) {
    const std::vector<double> oracle =
        RunKernel(kernel, g, KernelConfig("scalar", "double", false, 1));
    for (const std::string& simd : {std::string("scalar"), std::string("auto")}) {
      const std::vector<double> scores =
          RunKernel(kernel, g, KernelConfig(simd, "float", false, 1));
      const double drift = MaxAbsDiff(scores, oracle);
      EXPECT_LE(drift, kDriftBound)
          << kernel << " simd=" << simd << " float drift " << drift;
    }
  }
}

// --- adaptive convergence -----------------------------------------------

TEST(KernelAdaptiveTest, AdaptiveMatchesFixedAcrossKernelsAndThreads) {
  const CitationGraph g = TestGraph();
  // Default adaptive_tolerance (1e-13) freezes rows only once their
  // inputs have stopped moving at that scale; the committed scores may
  // lag the fixed-sweep reference by the frozen rows' residual budget.
  constexpr double kTolerance = 1e-9;
  for (const char* kernel : kEngineKernels) {
    const std::vector<double> fixed =
        RunKernel(kernel, g, KernelConfig("auto", "double", false, 1));
    for (int threads : kThreadCounts) {
      const std::vector<double> adaptive = RunKernel(
          kernel, g, KernelConfig("auto", "double", true, threads));
      const double diff = MaxAbsDiff(adaptive, fixed);
      EXPECT_LE(diff, kTolerance)
          << kernel << " adaptive threads=" << threads << " diff " << diff;
    }
  }
}

TEST(KernelAdaptiveTest, ZeroToleranceIsExactSkipping) {
  // adaptive_tolerance=0 skips a row only when its inputs are bit-equal,
  // so the trajectory — not just the fixed point — is bit-identical.
  const CitationGraph g = TestGraph();
  for (const char* kernel : kEngineKernels) {
    const std::vector<double> fixed =
        RunKernel(kernel, g, KernelConfig("scalar", "double", false, 1));
    Config config = KernelConfig("auto", "double", true, 2);
    config.SetDouble("adaptive_tolerance", 0.0);
    const std::vector<double> adaptive = RunKernel(kernel, g, config);
    ExpectBitIdentical(adaptive, fixed,
                       std::string(kernel) + " adaptive_tolerance=0");
  }
}

// --- legacy baseline ----------------------------------------------------

TEST(KernelLegacyTest, LegacyWithinRegroupingNoiseOfScalar) {
  // kLegacy keeps the PR-2 sequential accumulation order; it differs from
  // the striped oracle only by floating-point regrouping.
  const CitationGraph g = TestGraph();
  for (const char* kernel : kEngineKernels) {
    const std::vector<double> striped =
        RunKernel(kernel, g, KernelConfig("scalar", "double", false, 1));
    const std::vector<double> legacy =
        RunKernel(kernel, g, KernelConfig("legacy", "double", false, 1));
    const double diff = MaxAbsDiff(legacy, striped);
    EXPECT_LE(diff, 1e-9) << kernel << " legacy-vs-scalar diff " << diff;
  }
}

// --- option parsing -----------------------------------------------------

TEST(KernelOptionsTest, ParsesEverySpelling) {
  Config config;
  config.Set("simd", "avx2");
  config.Set("score_precision", "f32");
  config.SetBool("adaptive", true);
  config.SetDouble("adaptive_tolerance", 1e-10);
  const kernel::KernelOptions opts =
      kernel::KernelOptionsFromConfig(config).value();
  EXPECT_EQ(opts.simd, kernel::SimdMode::kAvx2);
  EXPECT_EQ(opts.precision, kernel::ScorePrecision::kFloat);
  EXPECT_TRUE(opts.adaptive);
  EXPECT_DOUBLE_EQ(opts.adaptive_tolerance, 1e-10);

  // Alternate spellings and defaults.
  EXPECT_EQ(kernel::SimdModeFromString("legacy").value(),
            kernel::SimdMode::kLegacy);
  EXPECT_EQ(kernel::ScorePrecisionFromString("f64").value(),
            kernel::ScorePrecision::kDouble);
  const kernel::KernelOptions defaults =
      kernel::KernelOptionsFromConfig(Config()).value();
  EXPECT_EQ(defaults.simd, kernel::SimdMode::kAuto);
  EXPECT_EQ(defaults.precision, kernel::ScorePrecision::kDouble);
  EXPECT_FALSE(defaults.adaptive);
}

TEST(KernelOptionsTest, RejectsUnknownSpellings) {
  {
    Config config;
    config.Set("simd", "sse9");
    EXPECT_TRUE(kernel::KernelOptionsFromConfig(config)
                    .status()
                    .IsInvalidArgument());
  }
  {
    Config config;
    config.Set("score_precision", "half");
    EXPECT_TRUE(kernel::KernelOptionsFromConfig(config)
                    .status()
                    .IsInvalidArgument());
  }
  {
    Config config;
    config.SetDouble("adaptive_tolerance", -1e-9);
    EXPECT_TRUE(kernel::KernelOptionsFromConfig(config)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(KernelOptionsTest, RegistryPropagatesBadKernelKeys) {
  Config config;
  config.Set("simd", "not-an-isa");
  for (const char* kernel : kEngineKernels) {
    const auto result = MakeRanker(kernel, config);
    EXPECT_FALSE(result.ok()) << kernel;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << kernel;
  }
}

// --- explicit avx2 on hosts without it ----------------------------------

TEST(KernelSimdTest, ExplicitAvx2MatchesHostCapability) {
  const CitationGraph g = MakeTinyGraph();
  auto ranker =
      MakeRanker("katz", KernelConfig("avx2", "double", false, 1))
          .value();
  const auto result = ranker->Rank(g);
  if (kernel::DetectSimdLevel() == kernel::SimdLevel::kAvx2) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  } else {
    // simd=avx2 is an explicit demand, not a hint: refused at setup.
    EXPECT_FALSE(result.ok());
  }
}

}  // namespace
}  // namespace scholar
