/// serve_read: read-only serving of one snapshot built before timing, with
/// no swaps. The timed phase restarts the server from the snapshot file a
/// few times (snapshot file -> LoadFile -> Start -> first correct top_k),
/// then drives the shared open-loop read load at the base rate (and, in
/// traced runs, up the rate ladder). Framing, QueryEngine, the top-k LRU
/// cache, the epoll loop and sendmsg do all the work; rank is idle.
#include <cstdio>
#include <filesystem>

#include "core/scholar_ranker.h"
#include "util/logging.h"
#include "inputs.h"
#include "pipeline.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {
constexpr size_t kArticles = 300000;
constexpr int kRestarts = 10;
/// Share of the run the base-rate read window takes.
constexpr double kBaseReadShare = 0.4;
constexpr size_t kRankThreads = 4;
constexpr size_t kServerWorkers = 1;
constexpr size_t kLoadThreads = 2;
}  // namespace

bool RunServeRead(const RunArgs& args, Report* report) {
  std::printf("serve_read: %zu articles, %d restarts, server workers %zu, "
              "load threads %zu\n",
              kArticles, kRestarts, kServerWorkers, kLoadThreads);
  const std::string snapshot_path = args.work_dir + "/serve_read.snapshot";
  const size_t rank_threads = std::min(kRankThreads, UsableCpus());
  ReadSchedules reads;
  std::vector<scholar::NodeId> top10;
  RunSetup(3, report, {snapshot_path}, [&] {
    ScopedSpan span("setup");
    const scholar::Corpus corpus = MakeCorpus(kArticles, args.seed);
    scholar::Result<scholar::ScholarRanker> ranker =
        scholar::ScholarRanker::Create(RankConfig("ens_twpr", rank_threads));
    SCHOLAR_CHECK_OK(ranker.status());
    scholar::Result<scholar::RankingOutput> ranking =
        ranker->RankGraph(corpus.graph);
    SCHOLAR_CHECK_OK(ranking.status());
    top10 = ranking->Top(10);
    scholar::serve::SnapshotMeta meta;
    meta.snapshot_id = 1;
    meta.ranker_name = ranker->name();
    meta.corpus_name = "perfbench";
    const int64_t b = NowNs();
    scholar::Result<scholar::serve::ScoreSnapshot> snapshot =
        scholar::serve::ScoreSnapshot::Build(corpus.graph, *ranking, meta);
    SCHOLAR_CHECK_OK(snapshot.status());
    const int64_t m = NowNs();
    SCHOLAR_CHECK_OK(snapshot->WriteToFile(snapshot_path));
    report->Set("serve.snapshot_build_ms", Seconds(b, m) * 1e3);
    report->Set("serve.snapshot_write_ms", Seconds(m, NowNs()) * 1e3);
    reads = MakeReadSchedules(kBaseReadShare * args.seconds, args.trace,
                              static_cast<uint32_t>(kArticles), args.seed + 1);
  });

  RssSampler rss;
  rss.Start();
  std::vector<double> e2e, untraced, traced;
  Serving serving;
  for (int rep = 0; rep < kRestarts; ++rep) {
    // A traced run traces every other restart, so the difference is the
    // tracing overhead.
    const bool trace_rep = args.trace && rep % 2 == 1;
    Tracer::Get().Enable(trace_rep);
    serving.Stop();
    serving = Serving();
    const int64_t t0 = NowNs();
    serving.manager = std::make_unique<scholar::serve::SnapshotManager>();
    scholar::Status status;
    {
      ScopedSpan span("serve.snapshot_load");
      status = serving.manager->LoadFile(snapshot_path);
    }
    report->Set("serve.snapshot_load_ms", Seconds(t0, NowNs()) * 1e3);
    report->Attempt();
    if (!status.ok()) {
      report->CheckFailed("snapshot load: " + status.ToString());
      return false;
    }
    if (!StartServer(&serving, kServerWorkers, report)) return false;
    if (!FirstTopK(serving.port(), top10, report)) return false;
    const double seconds = Seconds(t0, NowNs());
    e2e.push_back(seconds);
    (trace_rep ? traced : untraced).push_back(seconds);
  }
  // The program's resident set: loaded snapshot and running server. The
  // read load's generator buffers stay out of it.
  report->Set("peak_rss_mb", rss.StopPeakMb());
  std::error_code ec;
  report->Set("serve.snapshot_bytes",
              static_cast<double>(std::filesystem::file_size(snapshot_path, ec)));
  const ReadOutcome outcome =
      RunReads(serving.port(), reads, kLoadThreads,
               &serving.manager->Current()->snapshot, report);
  ReportReads(outcome, report);
  std::printf("  restarts: snapshot file -> first top_k median %.2f ms\n",
              Median(e2e) * 1e3);
  report->Set("batch_e2e_s", Median(e2e));
  report->Set("fresh_p50_ms", Quantile(e2e, 0.5) * 1e3);
  report->Set("fresh_p90_ms", Quantile(e2e, 0.9) * 1e3);
  if (args.trace) {
    report->Set("trace.overhead_pct",
                OverheadPct(Median(traced), Median(untraced)));
    RunServeProbes(&serving, reads.base, report);
  }
  serving.Stop();
  if (args.trace) {
    // The layers reads leave idle, on the corpus this snapshot ranks.
    const scholar::Corpus corpus = MakeCorpus(kArticles, args.seed);
    ProbeBatchLayers(corpus, args.seed, rank_threads, args.work_dir, report);
    ProbeStreamLayers(corpus.graph, report);
  }
  return true;
}

}  // namespace perfbench
