#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scholar_ranker.h"
#include "graph/citation_graph.h"
#include "inputs.h"
#include "loadgen.h"
#include "metrics.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"

/// The user paths the workloads time, each step wrapped in a span and
/// measured from outside the library. Shared by the three workloads and by
/// the layer probes of traced runs.
namespace perfbench {

/// Read load shared by every workload: the same mix, base rate, latency
/// limit and ladder of fixed absolute rates. Never derived from the run's
/// own capacity; README.md ("Why these rates") gives the measurements
/// behind the base rate and the limit.
struct ReadPlan {
  /// Open-loop Poisson rate at which read_p50_ms and serve.read_p99_ms are
  /// taken.
  static constexpr double kBaseRate = 20000;
  /// Tails are taken per window of this length; the reported tail is the
  /// median window's.
  static constexpr double kWindowSeconds = 0.2;
  /// serve.read_max_qps: the highest ladder rate whose p99 stays within the
  /// limit (refused requests count as missing it) with no growing backlog.
  static constexpr double kP99LimitMs = 2.0;
  static constexpr double kStepSeconds = 1.0;
  /// Share of the replies whose values are checked.
  static constexpr double kCheckFraction = 0.02;
  /// The ladder: 40k req/s * 1.05^i, rounded to 1000, i = 0..66 (40k to
  /// 1.0M). Searched by bisection, so a run visits 7 rungs.
  static const std::vector<double>& Ladder();
};

scholar::Config RankConfig(const std::string& ranker, size_t threads);
scholar::RankingOutput ToRanking(const scholar::RankResult& result);

/// A running server over its own snapshot manager.
struct Serving {
  std::unique_ptr<scholar::serve::SnapshotManager> manager;
  std::unique_ptr<scholar::serve::Server> server;
  uint16_t port() const { return server->port(); }
  void Stop();
};
/// Starts `workers` event-loop workers on an ephemeral port ("serve.start").
bool StartServer(Serving* serving, size_t workers, Report* report);

/// Sends "top_k 10" over TCP and checks the reply lists `expected`.
bool FirstTopK(uint16_t port, const std::vector<scholar::NodeId>& expected,
               Report* report);

/// Batch path: AMiner file -> ReadAMinerCorpusFile -> RankCorpus (ens_twpr)
/// -> ScoreSnapshot::Build + WriteToFile -> SnapshotManager::LoadFile ->
/// Server::Start -> the first TCP top_k 10, checked against
/// RankingOutput::Top(10). Also checks the loaded snapshot == the built one.
struct BatchOptions {
  std::string aminer_path;
  std::string snapshot_path;
  size_t rank_threads = 4;
  size_t server_workers = 1;
  /// Traced runs: TemporalCsr, TWPR weights, RankWithDetails and RankGraph
  /// probes on the parsed corpus, plus the RankCorpus == RankGraph check.
  bool probes = false;
};
struct BatchRun {
  double e2e_s = 0;
  Serving serving;
};
bool RunBatchPath(const BatchOptions& options, Report* report, BatchRun* out);

/// Checks one read reply against the snapshot it was served from. Returns
/// an empty string when it matches, else what differs.
std::string VerifyReply(const scholar::serve::ScoreSnapshot& snapshot,
                        const Schedule& schedule, size_t index,
                        std::string_view reply);

/// Schedules for one workload's reads, made from the seed before timing:
/// the base window, and (with `ladder`, in traced runs, which report
/// serve.read_max_qps) one schedule at the ladder's top rate whose prefix,
/// slowed down, serves every lower rung.
struct ReadSchedules {
  Schedule base;
  Schedule ladder;  // empty: no ladder
  /// Window of the base reads' tail (the stream uses its batch period, so
  /// every window holds one swap).
  double window_s = ReadPlan::kWindowSeconds;
};
ReadSchedules MakeReadSchedules(double base_seconds, bool ladder,
                                uint32_t id_space, uint64_t seed);

/// Read load at the base rate, then the ladder search.
struct ReadOutcome {
  LoadResult base;
  double window_s = ReadPlan::kWindowSeconds;
  double max_qps = 0;
  uint64_t sent = 0;  // base window and ladder together
};
/// An ERR reply or a failed connect fails the run anywhere; a shed or
/// dropped request fails it in the base window, and on the ladder only
/// fails the rung. When `verify` is given, every checked reply is compared
/// with it.
ReadOutcome RunReads(uint16_t port, const ReadSchedules& reads,
                     size_t threads,
                     const scholar::serve::ScoreSnapshot* verify,
                     Report* report);
/// Sets read_p50_ms, serve.read_p99_ms, serve.read_max_qps and loadgen.*
/// from `reads`.
void ReportReads(const ReadOutcome& reads, Report* report);

/// Traced-run serve probes against a live server: in-process
/// QueryEngine::Execute replay of `replay`, ping RTT, the server's own
/// stats line, and SnapshotManager::Install of the live snapshot.
void RunServeProbes(Serving* serving, const Schedule& replay,
                    Report* report);

/// Runs reads against the live server on `port`.
using ReadsFn = std::function<void(uint16_t port)>;

/// Streaming path: bootstrap graph -> EpochPipeline::Bootstrap (cold twpr)
/// -> Server::Start -> first top_k; then each EdgeBatch arrives on a fixed
/// period, is decoded (ReadEdgeBatch), applied and re-ranked warm (twpr,
/// full mode) and published (Build + Install) while reads run; freshness
/// is the batch's scheduled arrival to the first TCP `score <newest id>`
/// answering OK. Ends by checking the warm scores against RankCold.
struct StreamOptions {
  /// Optional: runs on its own thread while the batches arrive; joined
  /// before the path returns.
  ReadsFn beside_stream;
  size_t rank_threads = 2;
  size_t server_workers = 1;
  /// Bootstrap -> first top_k is repeated this many times; the median is
  /// the cold-start time and the last server stays up.
  int cold_starts = 1;
  double period_s = 0.08;
  /// Traced runs drive every odd epoch through Ingest / RankWarm /
  /// publisher directly, traced (a span per step), and the even ones
  /// through EpochPipeline::Step untraced.
  bool traced = false;
};
struct StreamRun {
  double bootstrap_e2e_s = 0;  // median cold start
  std::vector<double> fresh_ms;    // per epoch: scheduled arrival -> visible
  std::vector<double> service_ms;  // per epoch: processing start -> visible
  std::vector<bool> traced;        // per epoch: driven directly, traced
  Serving serving;
};
bool RunStreamPath(StreamInputs inputs, const StreamOptions& options,
                   Report* report, StreamRun* out);

/// Traced runs: the layers a workload's own path does not touch, measured
/// on the workload's own corpus. Each probe measures into a report of its
/// own, which `report` absorbs, so nothing the workload measured is
/// replaced. ProbeBatchLayers runs the batch path with its probes on
/// `corpus` written as shuffled AMiner text (data, graph, rank, ensemble,
/// snapshot I/O); ProbeStreamLayers streams the newest articles of `graph`
/// in ten 500-article batches onto the rest (stream).
void ProbeBatchLayers(const scholar::Corpus& corpus, uint64_t seed,
                      size_t rank_threads, const std::string& work_dir,
                      Report* report);
void ProbeStreamLayers(const scholar::CitationGraph& graph, Report* report);

/// Seconds between two NowNs() readings.
double Seconds(int64_t begin_ns, int64_t end_ns);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
