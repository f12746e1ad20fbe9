/// Tests of the benchmark's own helpers: the percentile picker, backlog
/// detection, self time and the Chrome trace writer. Exits non-zero on the
/// first failure. With a path argument it also writes a sample trace there,
/// which `run.py --selftest` parses as JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantile() {
  EXPECT(Near(Quantile({}, 0.5), 0.0));
  EXPECT(Near(Quantile({3, 1, 2}, 0.5), 2.0));
  EXPECT(Near(Quantile({1, 2, 3, 4}, 0.5), 2.5));
  EXPECT(Near(Quantile({1, 2, 3, 4, 5}, 1.0), 5.0));
  EXPECT(Near(Quantile({10, 20}, 0.9), 19.0));
}

void TestPercentilePick() {
  // 10 samples beyond p50 need 20 samples; beyond p90 100; beyond p99 1000.
  TailPick pick = HighestSupportedPercentile(19);
  EXPECT(!pick.supported);
  pick = HighestSupportedPercentile(20);
  EXPECT(pick.supported && Near(pick.q, 0.5) && pick.beyond == 10);
  pick = HighestSupportedPercentile(99);
  EXPECT(Near(pick.q, 0.5));
  pick = HighestSupportedPercentile(100);
  EXPECT(Near(pick.q, 0.9) && pick.beyond == 10);
  pick = HighestSupportedPercentile(999);
  EXPECT(Near(pick.q, 0.9));
  pick = HighestSupportedPercentile(1000);
  EXPECT(Near(pick.q, 0.99) && pick.beyond == 10);
  pick = HighestSupportedPercentile(250000);
  EXPECT(Near(pick.q, 0.9999) && pick.beyond == 25);
  EXPECT(pick.count == 250000);
  EXPECT(DescribeTail(HighestSupportedPercentile(1000)) ==
         "p99 n=1000 (10 beyond)");
  EXPECT(PercentileSupported(1000, 0.99));
  EXPECT(!PercentileSupported(999, 0.99));
}

void TestBacklog() {
  // Steady: outstanding hovers around Little's-law level.
  std::vector<BacklogSample> steady;
  for (int i = 0; i < 50; ++i) {
    steady.push_back({i * 0.01, 20.0 + (i % 3)});
  }
  EXPECT(!BacklogGrows(steady, 10000));
  // Overloaded: 10k/s offered, 8k/s served -> +2000/s.
  std::vector<BacklogSample> growing;
  for (int i = 0; i < 50; ++i) growing.push_back({i * 0.01, 20.0 + 2000 * i * 0.01});
  EXPECT(Near(BacklogSlope(growing), 2000));
  EXPECT(BacklogGrows(growing, 10000));
  // Growing, but by less than 5% of the offered rate.
  std::vector<BacklogSample> slight;
  for (int i = 0; i < 50; ++i) slight.push_back({i * 0.01, 20.0 + 400 * i * 0.01});
  EXPECT(!BacklogGrows(slight, 10000));
  // One deep stall at the end of a steady step is not growth.
  std::vector<BacklogSample> stall = steady;
  stall.back().outstanding = 5000;
  stall[stall.size() - 2].outstanding = 4000;
  EXPECT(BacklogSlope(stall) > 500);
  EXPECT(!BacklogGrows(stall, 10000));
  // Too few samples to judge.
  EXPECT(!BacklogGrows({{0, 0}, {0.01, 100}, {0.02, 200}}, 1000));
}

void TestWindowQuantiles() {
  // Two 1-s windows of 100 samples each; the second has a 5 % refused tail.
  std::vector<double> t, v;
  for (int i = 0; i < 100; ++i) {
    t.push_back(i * 0.01);
    v.push_back(1.0 + i * 0.01);
  }
  for (int i = 0; i < 100; ++i) {
    t.push_back(1.0 + i * 0.01);
    v.push_back(i < 95 ? 2.0 : std::numeric_limits<double>::infinity());
  }
  t.push_back(2.5);  // a third window with too few samples is skipped
  v.push_back(9.0);
  const std::vector<double> p99 = WindowQuantiles(t, v, 1.0, 0.99, 50);
  EXPECT(p99.size() == 2);
  if (p99.size() == 2) {
    EXPECT(Near(p99[0], 1.9801));
    EXPECT(std::isinf(p99[1]));
  }
  EXPECT(Near(Quantile(v, 0.0), 1.0));
  EXPECT(std::isinf(Quantile({1, std::numeric_limits<double>::infinity()}, 0.5)));
  EXPECT(Near(Quantile({1, std::numeric_limits<double>::infinity()}, 0.0), 1));
}

void TestSelfTime() {
  // parent [0,100) with children [10,30), [20,50) (overlapping) and
  // [90,120) (clipped to the parent): covered = [10,50) + [90,100) = 50.
  std::vector<Span> spans(5);
  spans[0] = {"parent", 0, 100, 0, -1, -1, 1};
  spans[1] = {"child", 10, 30, 1, 0, -1, 1};
  spans[2] = {"child", 20, 50, 2, 0, -1, 2};
  spans[3] = {"child", 90, 120, 3, 0, -1, 2};
  spans[4] = {"grandchild", 12, 15, 4, 1, 7, 1};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 17);  // 20 minus its grandchild's 3
  EXPECT(self[2] == 30);
  EXPECT(self[4] == 3);
  const auto totals = TotalsByName(spans);
  EXPECT(totals.at("child").count == 3);
  EXPECT(totals.at("child").total_ns == 80);
  EXPECT(totals.at("child").self_ns == 77);
}

void TestTracerAndWriter(const char* path) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  EXPECT(ScopedSpan("disabled").id() == -1);
  tracer.Enable(true);
  {
    ScopedSpan outer("outer", 3);
    { ScopedSpan inner("inner"); }
    tracer.Record("loadgen.request", NowNs() - 1000, NowNs(), outer.id(), 42);
  }
  tracer.Enable(false);
  const std::vector<Span> spans = tracer.Snapshot();
  EXPECT(spans.size() == 3);
  if (spans.size() == 3) {
    EXPECT(std::string(spans[0].name) == "outer" && spans[0].req == 3);
    EXPECT(std::string(spans[1].name) == "inner" &&
           spans[1].parent == spans[0].id);
    EXPECT(spans[2].parent == spans[0].id && spans[2].req == 42);
  }
  const std::string json = ChromeTraceJson(spans);
  EXPECT(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0) == 0);
  EXPECT(json.find("\"ph\":\"X\"") != std::string::npos);
  EXPECT(ChromeTraceJson({}) == "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
  if (path != nullptr) EXPECT(WriteChromeTrace(spans, path));
}

}  // namespace

int main(int argc, char** argv) {
  TestQuantile();
  TestPercentilePick();
  TestBacklog();
  TestWindowQuantiles();
  TestSelfTime();
  TestTracerAndWriter(argc > 1 ? argv[1] : nullptr);
  if (failures > 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all passed\n");
  return 0;
}
