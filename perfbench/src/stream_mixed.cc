/// stream_mixed: writes beside reads. The older half of a seeded
/// 60k-article corpus bootstraps the stream (cold twpr, publish, server
/// start, first top_k; 15 cold starts, the median reported). Then the
/// rest arrives as 300-article EdgeBatches, cut and serialized to wire
/// bytes before timing, one per fixed period. Each goes through
/// ReadEdgeBatch and EpochPipeline::Step (twpr, warm, full mode) and is
/// published by Build + Install into the live server's SnapshotManager,
/// while reads run at the base rate: short warm solves, a snapshot rebuild
/// per epoch and a cache generation bump on every swap. In traced runs the
/// rate ladder runs on the final server once the stream has ended.
#include <cstdio>

#include "inputs.h"
#include "pipeline.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {
constexpr size_t kArticles = 60000;
constexpr size_t kBatchNodes = 300;
constexpr size_t kRankThreads = 1;
constexpr size_t kServerWorkers = 1;
/// The ladder runs after the batches, while rank is idle. Beside the
/// batches one load thread, one server worker and one rank thread keep at
/// most three of four CPUs busy.
constexpr size_t kLadderLoadThreads = 2;
constexpr size_t kLoadThreads = 1;
/// Share of the run the epochs span; the rest is bootstrap and the checks.
constexpr double kStreamShare = 1.0;
}  // namespace

bool RunStreamMixed(const RunArgs& args, Report* report) {
  StreamInputs inputs;
  ReadSchedules reads;
  Schedule verify_reads;
  size_t epochs = 0;
  double period_s = 0;
  RunSetup(3, report, {}, [&] {
    ScopedSpan span("setup");
    const scholar::Corpus corpus = MakeCorpus(kArticles, args.seed);
    inputs = CutStream(corpus.graph, kArticles / 2, kBatchNodes);
    epochs = inputs.wire.size();
    period_s = kStreamShare * args.seconds / static_cast<double>(epochs);
    // Reads ask only for base-graph articles, which every epoch serves.
    const uint32_t id_space = static_cast<uint32_t>(kArticles / 2);
    reads = MakeReadSchedules(period_s * epochs, args.trace, id_space,
                              args.seed + 1);
    verify_reads = MakeSchedule(ReadPlan::kBaseRate, 0.2, id_space, 0.25,
                                args.seed + 2);
  });
  std::printf("stream_mixed: %zu articles, %zu epochs of %zu articles every "
              "%.1f ms, rank threads %zu, server workers %zu, load threads "
              "%zu (ladder %zu)\n",
              kArticles, epochs, kBatchNodes, period_s * 1e3, kRankThreads,
              kServerWorkers, kLoadThreads, kLadderLoadThreads);

  StreamOptions options;
  options.rank_threads = std::min(kRankThreads, UsableCpus());
  options.server_workers = kServerWorkers;
  options.period_s = period_s;
  options.traced = args.trace;
  options.cold_starts = 15;
  Tracer::Get().Enable(false);

  // The base-rate reads run beside the batches; replies race the swaps, so
  // their values are checked after the stream has ended, and the ladder
  // then runs on the final server.
  ReadOutcome beside;
  options.beside_stream = [&](uint16_t port) {
    ReadSchedules only_base;
    only_base.base = std::move(reads.base);
    only_base.window_s = period_s;
    beside = RunReads(port, only_base, kLoadThreads, nullptr, report);
  };
  RssSampler rss;
  rss.Start();
  StreamRun run;
  const bool ok = RunStreamPath(std::move(inputs), options, report, &run);
  // Bootstrap and stream, with the reads beside them. The reads' generator
  // buffers are sized by their schedule up front, so they do not grow when
  // the server answers faster.
  report->Set("peak_rss_mb", rss.StopPeakMb());
  if (!ok) return false;
  report->Set("batch_e2e_s", run.bootstrap_e2e_s);
  report->Set("fresh_p50_ms", Quantile(run.fresh_ms, 0.5));
  report->Set("fresh_p90_ms", Quantile(run.fresh_ms, 0.9));
  std::printf("  bootstrap -> first top_k %.3f s; freshness p50 %.2f ms p90 "
              "%.2f ms max %.2f ms (%s)\n",
              run.bootstrap_e2e_s, Quantile(run.fresh_ms, 0.5),
              Quantile(run.fresh_ms, 0.9), Quantile(run.fresh_ms, 1.0),
              DescribeTail(HighestSupportedPercentile(run.fresh_ms.size()))
                  .c_str());

  LoadOptions load;
  load.port = run.serving.port();
  const LoadResult final_reads = RunOpenLoop(verify_reads, load);
  report->Attempt(final_reads.sent);
  if (final_reads.connect_failed) report->CheckFailed("final reads: connect");
  report->Failed(final_reads.failures(), "final reads");
  const scholar::serve::ScoreSnapshot& final_snapshot =
      run.serving.manager->Current()->snapshot;
  for (const auto& [idx, reply] : final_reads.checked) {
    const std::string diff = VerifyReply(final_snapshot, verify_reads, idx, reply);
    if (!diff.empty()) report->CheckFailed("reply value: " + diff);
  }
  ReadSchedules only_ladder;
  only_ladder.ladder = std::move(reads.ladder);
  const ReadOutcome ladder = RunReads(run.serving.port(), only_ladder,
                                      kLadderLoadThreads, &final_snapshot,
                                      report);
  beside.max_qps = ladder.max_qps;
  beside.sent += ladder.sent;
  ReportReads(beside, report);

  if (args.trace) {
    // Odd epochs ran traced, even ones untraced.
    std::vector<double> traced, untraced;
    for (size_t i = 0; i < run.service_ms.size(); ++i) {
      (run.traced[i] ? traced : untraced).push_back(run.service_ms[i]);
    }
    report->Set("trace.overhead_pct",
                OverheadPct(Median(traced), Median(untraced)));
    RunServeProbes(&run.serving, verify_reads, report);
  }
  run.serving.Stop();
  if (args.trace) {
    // The batch layers and snapshot file I/O, on this workload's corpus.
    ProbeBatchLayers(MakeCorpus(kArticles, args.seed), args.seed,
                     options.rank_threads, args.work_dir, report);
  }
  return true;
}

}  // namespace perfbench
