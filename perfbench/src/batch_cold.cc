/// batch_cold: corpus file -> first answered query. A seeded ~300k-article
/// AMiner-profile corpus is written as AMiner V8 text in shuffled record
/// order before timing; each timed repetition parses it, ranks it with
/// ens_twpr through ScholarRanker::RankCorpus, builds and writes the
/// snapshot, loads it into a SnapshotManager, starts the server and waits
/// for the first correct `top_k 10` over TCP. The last repetition's server
/// then takes the shared read load while its caches are still cold.
#include <cstdio>
#include <fstream>

#include "inputs.h"
#include "pipeline.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {
constexpr size_t kArticles = 300000;
constexpr int kRepetitions = 3;
/// Share of the run the base-rate read window takes.
constexpr double kBaseReadShare = 0.1;
constexpr size_t kRankThreads = 3;
constexpr size_t kServerWorkers = 1;
constexpr size_t kLoadThreads = 2;
}  // namespace

bool RunBatchCold(const RunArgs& args, Report* report) {
  const size_t rank_threads = std::min(kRankThreads, UsableCpus());
  std::printf("batch_cold: %zu articles, %d repetitions, rank threads %zu, "
              "server workers %zu, load threads %zu\n",
              kArticles, kRepetitions, rank_threads, kServerWorkers,
              kLoadThreads);
  BatchOptions options;
  options.aminer_path = args.work_dir + "/batch_cold.aminer";
  options.snapshot_path = args.work_dir + "/batch_cold.snapshot";
  options.rank_threads = rank_threads;
  options.server_workers = kServerWorkers;

  ReadSchedules reads;
  RunSetup(3, report, {options.aminer_path}, [&] {
    ScopedSpan span("setup");
    const scholar::Corpus corpus = MakeCorpus(kArticles, args.seed);
    std::ofstream file(options.aminer_path, std::ios::binary | std::ios::trunc);
    file << ShuffledAMinerText(corpus, args.seed);
    reads = MakeReadSchedules(kBaseReadShare * args.seconds, args.trace,
                              static_cast<uint32_t>(kArticles), args.seed + 1);
  });

  RssSampler rss;
  rss.Start();
  std::vector<double> e2e;
  BatchRun run;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const bool last = rep + 1 == kRepetitions;
    // A traced run traces only its last repetition, so the difference to
    // the one before is the tracing overhead.
    Tracer::Get().Enable(args.trace && last);
    options.probes = args.trace && last;
    run.serving.Stop();
    run = BatchRun();
    if (!RunBatchPath(options, report, &run)) return false;
    e2e.push_back(run.e2e_s);
    std::printf("  repetition %d: file -> first top_k %.3f s\n", rep,
                run.e2e_s);
  }
  // The batch paths' resident set; the read load's generator buffers stay
  // out of it.
  report->Set("peak_rss_mb", rss.StopPeakMb());
  FlushWrites({options.snapshot_path});
  const ReadOutcome outcome =
      RunReads(run.serving.port(), reads, kLoadThreads,
               &run.serving.manager->Current()->snapshot, report);
  ReportReads(outcome, report);
  report->Set("batch_e2e_s", Median(e2e));
  report->Set("fresh_p50_ms", Quantile(e2e, 0.5) * 1e3);
  report->Set("fresh_p90_ms", Quantile(e2e, 0.9) * 1e3);
  if (args.trace) {
    report->Set("trace.overhead_pct", OverheadPct(e2e[kRepetitions - 1],
                                                     e2e[kRepetitions - 2]));
    RunServeProbes(&run.serving, reads.base, report);
  }
  run.serving.Stop();
  if (args.trace) {
    // The stream layers, on this workload's own corpus.
    ProbeStreamLayers(MakeCorpus(kArticles, args.seed).graph, report);
  }
  return true;
}

}  // namespace perfbench
