/// perfbench: the repository benchmark. One workload per run:
///
///   perfbench --workload batch_cold|serve_read|stream_mixed --seed N
///             --seconds S --trace 0|1 [--work-dir DIR]
///
/// Untraced runs (--trace 0) print every end-to-end metric; traced runs
/// print every per-layer metric, the tracing overhead, and write the spans
/// as Chrome trace-event JSON to DIR/trace_<workload>.json. The last line
/// of stdout is the JSON result: {"correct", "attempted", "failed",
/// "metrics"}. Normally started through run.py, which builds it first.
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "metrics.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

void RunSetup(int reps, Report* report, const std::vector<std::string>& files,
              const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const int64_t b = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - b) / 1e9);
  }
  report->Set("setup_s", Median(seconds));
  std::printf("  setup: %d runs, median %.3f s\n", reps, Median(seconds));
  malloc_trim(0);
  FlushWrites(files);
}

void FlushWrites(const std::vector<std::string>& files) {
  for (const std::string& path : files) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::close(fd);
  }
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "batch_cold|serve_read|stream_mixed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

void PrintSpanTotals(const std::vector<Span>& spans) {
  std::printf("  spans (name: calls, total ms, self ms):\n");
  for (const auto& [name, t] : TotalsByName(spans)) {
    std::printf("    %-26s %7zu %12.3f %12.3f\n", name.c_str(), t.count,
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, work_dir = ".bench_build/work";
  RunArgs args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool (*run)(const RunArgs&, Report*) = nullptr;
  if (workload == "batch_cold") run = RunBatchCold;
  if (workload == "serve_read") run = RunServeRead;
  if (workload == "stream_mixed") run = RunStreamMixed;
  if (run == nullptr) return Usage(("unknown workload " + workload).c_str());

  // A fixed mmap threshold (instead of glibc's sliding one) hands every
  // large buffer back to the OS when it is freed, so peak RSS follows live
  // memory rather than the allocator's history.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) return Usage(("cannot create " + work_dir).c_str());
  args.work_dir = work_dir;

  std::printf("%s\n", HostStamp(PERFBENCH_BUILD_TYPE).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Tracer::Get().Enable(args.trace);
  Report report;
  const CpuTicks ticks_before = ReadCpuTicks();
  const bool finished = run(args, &report);
  const CpuTicks ticks_after = ReadCpuTicks();
  if (!finished) report.CheckFailed("workload did not finish");
  Tracer::Get().Enable(false);
  if (args.trace) {
    const std::vector<Span> spans = Tracer::Get().Snapshot();
    PrintSpanTotals(spans);
    const std::string path = work_dir + "/trace_" + workload + ".json";
    if (!WriteChromeTrace(spans, path)) {
      report.CheckFailed("cannot write " + path);
    } else {
      std::printf("  trace: %zu spans -> %s\n", spans.size(), path.c_str());
    }
    std::printf("  tracing overhead: %.3f%% (traced minus untraced, same run)\n",
                report.Get("trace.overhead_pct"));
  }
  const double total = static_cast<double>(ticks_after.total - ticks_before.total);
  std::printf("  host steal during the run: %.1f%% of CPU time\n",
              total > 0 ? 100.0 * static_cast<double>(ticks_after.steal -
                                                      ticks_before.steal) / total
                        : 0.0);
  std::printf("%s\n", report.FinalJson(args.trace).c_str());
  std::fflush(stdout);
  return 0;
}
