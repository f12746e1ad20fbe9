#include "pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "ensemble/ensemble_ranker.h"
#include "graph/temporal_csr.h"
#include "rank/time_weighted_pagerank.h"
#include "serve/query_engine.h"
#include "stream/edge_batch.h"
#include "stream/epoch_pipeline.h"
#include "stream/incremental_ranker.h"
#include "stream/streaming_graph.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using scholar::CitationGraph;
using scholar::NodeId;
using scholar::RankingOutput;
using scholar::RankResult;
using scholar::serve::ScoreSnapshot;

const std::vector<double>& ReadPlan::Ladder() {
  static const std::vector<double>* rates = [] {
    auto* r = new std::vector<double>;
    for (int i = 0; i <= 66; ++i) {
      r->push_back(std::round(40.0 * std::pow(1.05, i)) * 1000.0);
    }
    return r;
  }();
  return *rates;
}

double Seconds(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e9;
}

scholar::Config RankConfig(const std::string& ranker, size_t threads) {
  scholar::Config config;
  config.Set("ranker", ranker);
  config.SetInt("threads", static_cast<int64_t>(threads));
  return config;
}

RankingOutput ToRanking(const RankResult& result) {
  RankingOutput out;
  out.ranks = scholar::ScoresToRanks(result.scores);
  out.percentiles = scholar::RankPercentiles(result.scores);
  out.scores = result.scores;
  out.iterations = result.iterations;
  out.converged = result.converged;
  return out;
}

void Serving::Stop() {
  if (server != nullptr) {
    server->Stop();
    server->Wait();
    server.reset();
  }
}

bool StartServer(Serving* serving, size_t workers, Report* report) {
  scholar::serve::ServerOptions options;
  options.port = 0;
  options.num_workers = workers;
  scholar::serve::QueryEngineOptions engine;
  engine.allow_reload = false;
  serving->server = std::make_unique<scholar::serve::Server>(
      serving->manager.get(), engine, options);
  const int64_t t0 = NowNs();
  scholar::Status status;
  {
    ScopedSpan span("serve.start");
    status = serving->server->Start();
  }
  report->Set("serve.start_ms", Seconds(t0, NowNs()) * 1e3);
  if (!status.ok()) {
    report->CheckFailed("server start: " + status.ToString());
    serving->server.reset();
    return false;
  }
  return true;
}

namespace {

std::string RenderIdScores(const ScoreSnapshot& snap,
                           const std::vector<NodeId>& ids) {
  std::string out = "OK";
  for (NodeId id : ids) {
    out += ' ';
    out += std::to_string(id);
    out += ':';
    out += scholar::FormatDouble(snap.score(id), 10);
  }
  return out;
}

std::vector<NodeId> ParseIds(std::string_view reply) {
  std::vector<NodeId> ids;
  std::vector<std::string_view> tokens = scholar::SplitSkipEmpty(reply, ' ');
  for (size_t i = 1; i < tokens.size(); ++i) {
    const size_t colon = tokens[i].find(':');
    scholar::Result<int64_t> id = scholar::ParseInt64(tokens[i].substr(0, colon));
    ids.push_back(id.ok() ? static_cast<NodeId>(*id) : scholar::kInvalidNode);
  }
  return ids;
}

}  // namespace

bool FirstTopK(uint16_t port, const std::vector<NodeId>& expected,
               Report* report) {
  ScopedSpan span("serve.first_query");
  LineClient client;
  std::string reply;
  report->Attempt();
  if (!client.Connect(port) || !client.Call("top_k 10", &reply)) {
    report->CheckFailed("first top_k: no reply");
    return false;
  }
  if (reply.rfind("OK", 0) != 0 || ParseIds(reply) != expected) {
    report->CheckFailed("first top_k differs from RankingOutput::Top(10): " +
                        reply.substr(0, 120));
    return false;
  }
  return true;
}

bool RunBatchPath(const BatchOptions& options, Report* report,
                  BatchRun* out) {
  ScopedSpan path_span("batch.path");
  const int64_t t0 = NowNs();
  scholar::Result<scholar::Corpus> corpus = scholar::Status::OK();
  {
    ScopedSpan span("data.parse");
    corpus = scholar::ReadAMinerCorpusFile(options.aminer_path);
  }
  const int64_t t_parsed = NowNs();
  if (!corpus.ok()) {
    report->CheckFailed("parse: " + corpus.status().ToString());
    return false;
  }
  const double parse_s = Seconds(t0, t_parsed);
  std::error_code ec;
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(options.aminer_path, ec)) /
      1e6;
  report->Set("data.parse_s", parse_s);
  report->Set("data.parse_mb_per_s", file_mb / parse_s);

  scholar::Result<scholar::ScholarRanker> ranker =
      scholar::ScholarRanker::Create(RankConfig("ens_twpr", options.rank_threads));
  SCHOLAR_CHECK_OK(ranker.status());
  scholar::Result<RankingOutput> ranking = scholar::Status::OK();
  {
    ScopedSpan span("ensemble.rank_corpus");
    ranking = ranker->RankCorpus(*corpus);
  }
  const int64_t t_ranked = NowNs();
  if (!ranking.ok()) {
    report->CheckFailed("RankCorpus: " + ranking.status().ToString());
    return false;
  }
  report->Set("ensemble.rank_corpus_s", Seconds(t_parsed, t_ranked));

  scholar::serve::SnapshotMeta meta;
  meta.snapshot_id = 1;
  meta.ranker_name = ranker->name();
  meta.corpus_name = "perfbench";
  scholar::Result<ScoreSnapshot> built = scholar::Status::OK();
  {
    ScopedSpan span("serve.snapshot_build");
    built = ScoreSnapshot::Build(corpus->graph, *ranking, meta);
  }
  const int64_t t_built = NowNs();
  if (!built.ok()) {
    report->CheckFailed("snapshot build: " + built.status().ToString());
    return false;
  }
  report->Set("serve.snapshot_build_ms", Seconds(t_ranked, t_built) * 1e3);
  scholar::Status status;
  {
    ScopedSpan span("serve.snapshot_write");
    status = built->WriteToFile(options.snapshot_path);
  }
  const int64_t t_written = NowNs();
  if (!status.ok()) {
    report->CheckFailed("snapshot write: " + status.ToString());
    return false;
  }
  report->Set("serve.snapshot_write_ms", Seconds(t_built, t_written) * 1e3);
  report->Set("serve.snapshot_bytes", static_cast<double>(std::filesystem::file_size(
                                          options.snapshot_path, ec)));

  out->serving.manager = std::make_unique<scholar::serve::SnapshotManager>();
  {
    ScopedSpan span("serve.snapshot_load");
    status = out->serving.manager->LoadFile(options.snapshot_path);
  }
  report->Set("serve.snapshot_load_ms", Seconds(t_written, NowNs()) * 1e3);
  if (!status.ok()) {
    report->CheckFailed("snapshot load: " + status.ToString());
    return false;
  }
  if (!StartServer(&out->serving, options.server_workers, report)) return false;
  const bool first_ok =
      FirstTopK(out->serving.port(), ranking->Top(10), report);
  out->e2e_s = Seconds(t0, NowNs());
  if (!first_ok) return false;

  report->Attempt();
  if (!(out->serving.manager->Current()->snapshot == *built)) {
    report->CheckFailed("snapshot read back != snapshot built");
  }
  if (!options.probes) return true;

  // Traced-run probes on the same parsed corpus.
  {
    const int64_t b = NowNs();
    ScopedSpan span("graph.tcsr_build");
    scholar::TemporalCsr tcsr(corpus->graph);
    report->Set("graph.tcsr_build_ms", Seconds(b, NowNs()) * 1e3);
    report->Set("graph.tcsr_identity", tcsr.is_identity() ? 1 : 0);
  }
  {
    std::unique_ptr<scholar::ThreadPool> pool;
    if (options.rank_threads > 1) {
      pool = std::make_unique<scholar::ThreadPool>(options.rank_threads - 1);
    }
    const int64_t b = NowNs();
    ScopedSpan span("rank.twpr_weights");
    std::vector<double> weights =
        scholar::TimeWeightedPageRank::ComputeInEdgeWeights(
            corpus->graph, scholar::TwprOptions().sigma, pool.get());
    report->Set("rank.twpr_weights_ms", Seconds(b, NowNs()) * 1e3);
  }
  if (const auto* ensemble =
          dynamic_cast<const scholar::EnsembleRanker*>(&ranker->ranker())) {
    // The same context RankCorpus builds, so the details describe the
    // path RankCorpus took.
    scholar::RankContext ctx;
    ctx.graph = &corpus->graph;
    if (corpus->has_authors()) ctx.authors = &corpus->authors;
    if (!corpus->venues.empty()) ctx.venues = &corpus->venues;
    std::vector<scholar::EnsembleRanker::SnapshotDetail> details;
    const int64_t b = NowNs();
    scholar::Result<RankResult> detailed = scholar::Status::OK();
    {
      ScopedSpan span("rank.rank_with_details");
      detailed = ensemble->RankWithDetails(ctx, &details);
    }
    const double elapsed_ns = static_cast<double>(NowNs() - b);
    double sweeps = 0, visits = 0;
    for (const auto& d : details) {
      sweeps += d.iterations;
      visits += static_cast<double>(d.num_edges) * d.iterations;
    }
    report->Set("rank.sweeps", sweeps);
    report->Set("rank.edge_visits", visits);
    report->Set("rank.ns_per_edge_visit", visits > 0 ? elapsed_ns / visits : 0);
  }
  {
    const int64_t b = NowNs();
    scholar::Result<RankingOutput> by_graph = scholar::Status::OK();
    {
      ScopedSpan span("ensemble.rank_graph");
      by_graph = ranker->RankGraph(corpus->graph);
    }
    const double graph_s = Seconds(b, NowNs());
    report->Set("ensemble.rank_graph_s", graph_s);
    report->Set("ensemble.path_gap_s",
                report->Get("ensemble.rank_corpus_s") - graph_s);
    report->Attempt();
    if (!by_graph.ok() || by_graph->scores.size() != ranking->scores.size()) {
      report->CheckFailed("RankGraph failed or sized differently");
    } else {
      size_t differ = 0;
      double max_diff = 0;
      for (size_t v = 0; v < ranking->scores.size(); ++v) {
        const double d = std::fabs(by_graph->scores[v] - ranking->scores[v]);
        differ += d != 0;
        max_diff = std::max(max_diff, d);
      }
      // The two paths are meant to be bit-identical; on shuffled corpora a
      // few scores differ by whole percentile steps (see README.md), so the
      // count is reported and the check holds them to the top of the
      // ranking being the same and every score within 1e-3.
      std::printf("  RankCorpus vs RankGraph: %zu of %zu scores differ, max "
                  "|diff| %.3e\n", differ, ranking->scores.size(), max_diff);
      report->Set("ensemble.path_score_diffs", static_cast<double>(differ));
      if (max_diff > 1e-3 || by_graph->Top(100) != ranking->Top(100)) {
        report->CheckFailed("RankCorpus and RankGraph rankings disagree (max "
                            "|diff| " + std::to_string(max_diff) + ")");
      }
    }
  }
  return true;
}

std::string VerifyReply(const ScoreSnapshot& snap, const Schedule& schedule,
                        size_t index, std::string_view reply) {
  const Request& request = schedule[index];
  std::string expected;
  switch (request.kind) {
    case Kind::kTopK: {
      std::span<const NodeId> page = snap.TopPage(request.offset, request.k);
      expected = RenderIdScores(snap, {page.begin(), page.end()});
      break;
    }
    case Kind::kScore:
      expected = "OK " + scholar::FormatDouble(snap.score(request.id), 10);
      break;
    case Kind::kRank:
      expected = "OK " + std::to_string(snap.rank(request.id));
      break;
    case Kind::kPercentile:
      expected = "OK " + scholar::FormatDouble(snap.percentile(request.id), 10);
      break;
    case Kind::kNeighbors: {
      std::span<const NodeId> row = request.citers
                                        ? snap.Citers(request.id)
                                        : snap.References(request.id);
      std::vector<NodeId> ranked(row.begin(), row.end());
      std::sort(ranked.begin(), ranked.end(), [&snap](NodeId a, NodeId b) {
        if (snap.score(a) != snap.score(b)) return snap.score(a) > snap.score(b);
        return a < b;
      });
      ranked.resize(std::min<size_t>(ranked.size(), request.k));
      expected = RenderIdScores(snap, ranked);
      break;
    }
  }
  if (reply == expected) return "";
  const std::string_view line = schedule.Line(index);
  return "'" + std::string(line.substr(0, line.size() - 1)) + "' -> '" +
         std::string(reply.substr(0, 80)) + "', expected '" +
         expected.substr(0, 80) + "'";
}

ReadSchedules MakeReadSchedules(double base_seconds, bool ladder,
                                uint32_t id_space, uint64_t seed) {
  ScopedSpan span("setup.schedules");
  ReadSchedules s;
  s.base = MakeSchedule(ReadPlan::kBaseRate, base_seconds, id_space,
                        ReadPlan::kCheckFraction, seed);
  if (ladder) {
    s.ladder = MakeSchedule(ReadPlan::Ladder().back(), ReadPlan::kStepSeconds,
                            id_space, ReadPlan::kCheckFraction, seed * 131 + 1);
  }
  return s;
}

namespace {

void CountLoad(const LoadResult& r, bool on_ladder, const char* what,
               Report* report) {
  report->Attempt(r.sent);
  if (r.connect_failed) report->CheckFailed(std::string(what) + ": connect");
  report->Failed(r.errors, std::string(what) + ": ERR replies");
  if (on_ladder) return;  // refusals there fail the rung, not the run
  report->Failed(r.dropped, std::string(what) + ": dropped");
  report->Failed(r.shed, std::string(what) + ": shed");
}

void VerifyChecked(const LoadResult& r, const Schedule& schedule,
                   const ScoreSnapshot* verify, Report* report) {
  if (verify == nullptr) return;
  for (const auto& [idx, reply] : r.checked) {
    if (reply == "BUSY") continue;  // shed, counted by CountLoad
    const std::string diff = VerifyReply(*verify, schedule, idx, reply);
    if (!diff.empty()) report->CheckFailed("reply value: " + diff);
  }
}

}  // namespace

namespace {

/// The median over windows of the p99 latency, refusals counted as +inf.
double WindowedP99(const LoadResult& r, double window_s) {
  return Median(WindowQuantiles(r.sched_s, r.latency_ms, window_s, 0.99, 1000));
}

}  // namespace

ReadOutcome RunReads(uint16_t port, const ReadSchedules& reads,
                     size_t threads, const ScoreSnapshot* verify,
                     Report* report) {
  ReadOutcome out;
  out.window_s = reads.window_s;
  LoadOptions options;
  options.port = port;
  options.threads = threads;
  if (!reads.base.empty()) {
    ScopedSpan span("loadgen.base");
    options.trace_parent = span.id();
    out.base = RunOpenLoop(reads.base, options);
  }
  CountLoad(out.base, /*on_ladder=*/false, "base reads", report);
  VerifyChecked(out.base, reads.base, verify, report);
  uint64_t sent = out.base.sent;

  // Bisection over the ladder for the last rung that passes; `lo` passed
  // (or is -1), `hi` failed (or is one past the top).
  const std::vector<double>& rates = ReadPlan::Ladder();
  const double top = rates.back();
  int lo = -1, hi = reads.ladder.empty() ? 0 : static_cast<int>(rates.size());
  uint64_t lowest_ok = 0;  // answered on the lowest failed rung
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    LoadOptions step_options = options;
    step_options.time_scale = top / rates[mid];
    step_options.count =
        static_cast<size_t>(reads.ladder.size() * rates[mid] / top);
    LoadResult step;
    {
      ScopedSpan span("loadgen.step", mid);
      step_options.trace_parent = span.id();
      step = RunOpenLoop(reads.ladder, step_options);
    }
    sent += step.sent;
    const double p99 = WindowedP99(step, ReadPlan::kWindowSeconds);
    const bool grows = BacklogGrows(step.backlog, rates[mid]);
    const bool pass = !step.connect_failed && step.errors == 0 &&
                      step.dropped == 0 && p99 <= ReadPlan::kP99LimitMs &&
                      !grows;
    CountLoad(step, /*on_ladder=*/true, "ladder reads", report);
    VerifyChecked(step, reads.ladder, verify, report);
    const double achieved =
        static_cast<double>(step.ok) / ReadPlan::kStepSeconds;
    std::printf(
        "  ladder %7.0f/s: achieved %9.1f/s p99 %.3f ms late_p99 %.3f ms "
        "backlog_slope %.0f/s shed %llu -> %s\n",
        rates[mid], achieved, p99, Quantile(step.late_ms, 0.99),
        BacklogSlope(step.backlog),
        static_cast<unsigned long long>(step.shed), pass ? "pass" : "FAIL");
    if (pass) {
      lo = mid;
      out.max_qps = achieved;
    } else {
      hi = mid;
      lowest_ok = step.ok;
    }
    // Let an overloaded server drain before the next rung.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (lo < 0 && !reads.ladder.empty()) {
    std::printf("  no ladder rung met the limit; read_max_qps reports the "
                "lowest rung's answered rate\n");
    out.max_qps = static_cast<double>(lowest_ok) / ReadPlan::kStepSeconds;
  }
  out.sent = sent;
  return out;
}

void ReportReads(const ReadOutcome& reads, Report* report) {
  const LoadResult& base = reads.base;
  const double p50 = Median(base.latency_ms);
  const std::vector<double> windows = WindowQuantiles(
      base.sched_s, base.latency_ms, reads.window_s, 0.99, 1000);
  const double p99 = Median(windows);
  report->Set("read_p50_ms", p50);
  report->Set("serve.read_p99_ms", p99);
  report->Set("serve.read_max_qps", reads.max_qps);
  report->Set("loadgen.sent", static_cast<double>(reads.sent));
  report->Set("loadgen.late_p99_ms", Quantile(base.late_ms, 0.99));
  const size_t n = base.latency_ms.size();
  std::printf("  reads @ %.0f/s: p50 %.4f ms; p99 per %.2f-s window: q1 "
              "%.4f median %.4f q3 %.4f ms over %zu windows; whole-run p99 "
              "%.4f ms; %s%s\n",
              ReadPlan::kBaseRate, p50, reads.window_s,
              Quantile(windows, 0.25), p99, Quantile(windows, 0.75),
              windows.size(), Quantile(base.latency_ms, 0.99),
              DescribeTail(HighestSupportedPercentile(n)).c_str(),
              PercentileSupported(n, 0.99) ? "" : " [p99 UNSUPPORTED]");
}

void RunServeProbes(Serving* serving, const Schedule& replay,
                    Report* report) {
  ScopedSpan probes("serve.probes");
  {
    scholar::serve::QueryEngine engine(serving->manager.get());
    const size_t n = std::min<size_t>(replay.size(), 50000);
    size_t bytes = 0;
    const int64_t b = NowNs();
    {
      ScopedSpan span("serve.engine_replay");
      for (size_t i = 0; i < n; ++i) {
        std::string_view line = replay.Line(i);
        line.remove_suffix(1);
        bytes += engine.Execute(line).size();
      }
    }
    const double ns = static_cast<double>(NowNs() - b);
    if (n > 0) report->Set("serve.engine_ns_per_req", ns / static_cast<double>(n));
    const double hits = static_cast<double>(engine.cache_hits());
    const double misses = static_cast<double>(engine.cache_misses());
    report->Set("serve.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0);
    std::printf("  engine replay: %zu requests, %zu reply bytes, top-k cache "
                "%.0f hits / %.0f lookups\n",
                n, bytes, hits, hits + misses);
  }
  LineClient client;
  if (!client.Connect(serving->port())) {
    report->CheckFailed("probe connect");
    return;
  }
  {
    std::vector<double> rtt_us;
    std::string reply;
    ScopedSpan span("serve.ping");
    for (int i = 0; i < 2000; ++i) {
      const int64_t b = NowNs();
      if (!client.Call("ping", &reply) || reply != "OK pong") {
        report->CheckFailed("ping");
        break;
      }
      rtt_us.push_back(static_cast<double>(NowNs() - b) / 1e3);
    }
    report->Set("serve.ping_rtt_p50_us", Median(rtt_us));
  }
  {
    std::string stats;
    if (!client.Call("stats", &stats)) {
      report->CheckFailed("stats");
    } else {
      auto field = [&stats](const std::string& key) {
        for (std::string_view token : scholar::SplitSkipEmpty(stats, ' ')) {
          if (token.substr(0, key.size() + 1) == key + "=") {
            scholar::Result<int64_t> v =
                scholar::ParseInt64(token.substr(key.size() + 1));
            return v.ok() ? static_cast<double>(*v) : 0.0;
          }
        }
        return 0.0;
      };
      report->Set("serve.server_p99_us", field("p99_ns") / 1e3);
      report->Set("serve.requests", field("served"));
      report->Set("serve.shed", field("shed"));
      std::printf("  server stats: %s\n", stats.c_str());
    }
  }
  {
    std::vector<double> install_us;
    for (int i = 0; i < 5; ++i) {
      ScoreSnapshot copy = serving->manager->Current()->snapshot;
      const int64_t b = NowNs();
      {
        ScopedSpan span("serve.install");
        serving->manager->Install(std::move(copy));
      }
      install_us.push_back(static_cast<double>(NowNs() - b) / 1e3);
    }
    report->Set("serve.install_us", Median(install_us));
  }
}

bool RunStreamPath(StreamInputs inputs, const StreamOptions& options,
                   Report* report, StreamRun* out) {
  namespace st = scholar::stream;
  st::IncrementalRankerOptions ranker_options;
  ranker_options.ranker = "twpr";
  ranker_options.mode = "full";
  ranker_options.config = RankConfig("twpr", options.rank_threads);
  std::unique_ptr<st::IncrementalRanker> ranker;
  std::unique_ptr<st::StreamingGraph> graph_holder;
  std::unique_ptr<st::EpochPipeline> pipeline;
  scholar::serve::SnapshotManager* manager = nullptr;

  std::vector<double> build_ms, install_us;
  std::vector<NodeId> first_top;
  st::EpochPublisher publisher =
      [&](const CitationGraph& g, const RankResult& r,
          const st::EpochStats& s) -> scholar::Status {
    const RankingOutput ranking = ToRanking(r);
    if (s.epoch == 0) first_top = ranking.Top(10);
    scholar::serve::SnapshotMeta meta;
    meta.snapshot_id = s.epoch;
    meta.ranker_name = "twpr";
    meta.corpus_name = "perfbench-stream";
    const int64_t b = NowNs();
    scholar::Result<ScoreSnapshot> snap = scholar::Status::OK();
    {
      ScopedSpan span("serve.snapshot_build", static_cast<int64_t>(s.epoch));
      snap = ScoreSnapshot::Build(g, ranking, std::move(meta));
    }
    SCHOLAR_RETURN_NOT_OK(snap.status());
    const int64_t m = NowNs();
    {
      ScopedSpan span("serve.install", static_cast<int64_t>(s.epoch));
      manager->Install(std::move(*snap));
    }
    if (s.epoch > 0) {
      build_ms.push_back(Seconds(b, m) * 1e3);
      install_us.push_back(static_cast<double>(NowNs() - m) / 1e3);
    }
    return scholar::Status::OK();
  };
  // Cold starts: bootstrap graph -> cold rank + publish -> server start ->
  // first top_k. The last one keeps serving while the batches arrive.
  scholar::Status status;
  std::vector<double> cold_start_s;
  for (int rep = 0; rep < options.cold_starts; ++rep) {
    const bool last = rep + 1 == options.cold_starts;
    out->serving.Stop();
    out->serving = Serving();
    out->serving.manager = std::make_unique<scholar::serve::SnapshotManager>();
    manager = out->serving.manager.get();
    scholar::Result<st::IncrementalRanker> created =
        st::IncrementalRanker::Create(ranker_options);
    SCHOLAR_CHECK_OK(created.status());
    ranker = std::make_unique<st::IncrementalRanker>(std::move(*created));
    graph_holder = std::make_unique<st::StreamingGraph>(
        last ? std::move(inputs.base) : inputs.base);
    pipeline = std::make_unique<st::EpochPipeline>(graph_holder.get(),
                                                   ranker.get(), publisher);
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("stream.bootstrap");
      status = pipeline->Bootstrap();
    }
    report->Attempt();
    if (!status.ok()) {
      report->CheckFailed("bootstrap: " + status.ToString());
      return false;
    }
    if (!StartServer(&out->serving, options.server_workers, report)) {
      return false;
    }
    if (!FirstTopK(out->serving.port(), first_top, report)) return false;
    cold_start_s.push_back(Seconds(t0, NowNs()));
  }
  out->bootstrap_e2e_s = Median(cold_start_s);
  st::StreamingGraph& graph = *graph_holder;

  std::thread reader;
  if (options.beside_stream) {
    reader = std::thread(options.beside_stream, out->serving.port());
  }

  LineClient poller;
  if (!poller.Connect(out->serving.port())) {
    report->CheckFailed("freshness poller connect");
  }
  std::vector<double> decode_us, ingest_ms, rank_ms, publish_ms, lag_ms;
  std::vector<double> warm_iterations;
  const int64_t period_ns = static_cast<int64_t>(options.period_s * 1e9);
  const int64_t start = NowNs() + period_ns;
  for (size_t i = 0; i < inputs.wire.size(); ++i) {
    const int64_t arrival = start + static_cast<int64_t>(i) * period_ns;
    while (NowNs() < arrival) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(arrival - NowNs(), 200000)));
    }
    const bool direct = options.traced && i % 2 == 1;
    Tracer::Get().Enable(direct);
    const int64_t begin = NowNs();
    ScopedSpan epoch_span("stream.epoch", static_cast<int64_t>(i));
    report->Attempt();
    std::istringstream wire(inputs.wire[i]);
    scholar::Result<st::EdgeBatch> batch = scholar::Status::OK();
    const int64_t decode_begin = NowNs();
    {
      ScopedSpan span("stream.decode", static_cast<int64_t>(i));
      batch = st::ReadEdgeBatch(&wire);
    }
    decode_us.push_back(static_cast<double>(NowNs() - decode_begin) / 1e3);
    if (!batch.ok()) {
      report->CheckFailed("ReadEdgeBatch: " + batch.status().ToString());
      break;
    }
    int64_t published = 0;
    if (direct) {
      int64_t b = NowNs();
      scholar::Result<size_t> applied = scholar::Status::OK();
      {
        ScopedSpan span("stream.ingest", static_cast<int64_t>(i));
        applied = graph.Ingest(std::move(*batch));
      }
      ingest_ms.push_back(Seconds(b, NowNs()) * 1e3);
      if (!applied.ok() || *applied != 1) {
        report->CheckFailed("Ingest did not apply batch " + std::to_string(i));
        break;
      }
      const CitationGraph* g = nullptr;
      {
        ScopedSpan span("stream.reverse_csr", static_cast<int64_t>(i));
        g = &graph.graph();
      }
      b = NowNs();
      scholar::Result<RankResult> ranked = scholar::Status::OK();
      {
        ScopedSpan span("stream.rank_warm", static_cast<int64_t>(i));
        ranked = ranker->RankWarm(*g);
      }
      rank_ms.push_back(Seconds(b, NowNs()) * 1e3);
      if (!ranked.ok()) {
        report->CheckFailed("RankWarm: " + ranked.status().ToString());
        break;
      }
      warm_iterations.push_back(ranked->iterations);
      st::EpochStats stats;
      stats.epoch = i + 1;
      b = NowNs();
      {
        ScopedSpan span("stream.publish", static_cast<int64_t>(i));
        status = publisher(*g, *ranked, stats);
      }
      published = NowNs();
      publish_ms.push_back(Seconds(b, published) * 1e3);
    } else {
      scholar::Result<st::EpochStats> stats = pipeline->Step(std::move(*batch));
      published = NowNs();
      status = stats.status();
      if (stats.ok()) {
        ingest_ms.push_back(stats->apply_ms);
        rank_ms.push_back(stats->rank_ms);
        publish_ms.push_back(stats->publish_ms);
        warm_iterations.push_back(stats->iterations);
      }
    }
    if (!status.ok()) {
      report->CheckFailed("epoch " + std::to_string(i) + ": " +
                          status.ToString());
      break;
    }
    // Freshness: the first TCP score query for the newest article that
    // answers OK.
    const std::string query =
        "score " +
        std::to_string(inputs.first_new_id[i] + inputs.batch_nodes[i] - 1);
    std::string reply;
    bool visible = false;
    {
      ScopedSpan span("stream.visible", static_cast<int64_t>(i));
      for (int attempt = 0; attempt < 100000 && !visible; ++attempt) {
        if (!poller.Call(query, &reply)) break;
        visible = reply.rfind("OK", 0) == 0;
      }
    }
    const int64_t seen = NowNs();
    if (!visible) {
      report->CheckFailed("batch " + std::to_string(i) +
                          " never answerable: " + reply);
      break;
    }
    lag_ms.push_back(Seconds(published, seen) * 1e3);
    out->fresh_ms.push_back(Seconds(arrival, seen) * 1e3);
    out->service_ms.push_back(Seconds(begin, seen) * 1e3);
    out->traced.push_back(direct);
  }
  Tracer::Get().Enable(options.traced);
  if (reader.joinable()) reader.join();

  report->Set("stream.decode_us", Median(decode_us));
  report->Set("stream.ingest_ms", Median(ingest_ms));
  report->Set("stream.rank_warm_ms", Median(rank_ms));
  report->Set("stream.warm_iterations", Median(warm_iterations));
  report->Set("stream.publish_ms", Median(publish_ms));
  report->Set("stream.visible_lag_ms", Median(lag_ms));
  if (!build_ms.empty()) report->Set("serve.snapshot_build_ms", Median(build_ms));
  if (!install_us.empty()) report->Set("serve.install_us", Median(install_us));

  // The warm chain must land on the cold fixed point.
  scholar::Result<st::IncrementalRanker> cold_ranker =
      st::IncrementalRanker::Create(ranker_options);
  SCHOLAR_CHECK_OK(cold_ranker.status());
  scholar::Result<RankResult> cold = scholar::Status::OK();
  {
    ScopedSpan span("stream.rank_cold");
    cold = cold_ranker->RankCold(graph.graph());
  }
  report->Attempt();
  if (!cold.ok() || cold->scores.size() != ranker->previous_scores().size()) {
    report->CheckFailed("RankCold oracle failed or sized differently");
    return false;
  }
  report->Set("stream.cold_iterations", cold->iterations);
  double drift = 0;
  for (size_t v = 0; v < cold->scores.size(); ++v) {
    drift = std::max(drift,
                     std::fabs(cold->scores[v] - ranker->previous_scores()[v]));
  }
  std::printf("  stream: %zu epochs, final %zu nodes, warm-vs-cold drift %.3e\n",
              out->fresh_ms.size(), graph.num_nodes(), drift);
  if (drift > 1e-8) {
    report->CheckFailed("warm stream scores drift " + std::to_string(drift) +
                        " > 1e-8 from RankCold");
  }
  return out->fresh_ms.size() == inputs.wire.size();
}

void ProbeBatchLayers(const scholar::Corpus& corpus, uint64_t seed,
                      size_t rank_threads, const std::string& work_dir,
                      Report* report) {
  ScopedSpan span("probe.batch_layers");
  BatchOptions options;
  options.aminer_path = work_dir + "/probe.aminer";
  options.snapshot_path = work_dir + "/probe.snapshot";
  options.rank_threads = rank_threads;
  options.probes = true;
  {
    std::ofstream f(options.aminer_path, std::ios::binary | std::ios::trunc);
    f << ShuffledAMinerText(corpus, seed);
  }
  Report probe;
  BatchRun run;
  RunBatchPath(options, &probe, &run);
  run.serving.Stop();
  report->Absorb(probe);
}

void ProbeStreamLayers(const CitationGraph& graph, Report* report) {
  ScopedSpan span("probe.stream_layers");
  constexpr size_t kBatches = 10, kBatchNodes = 500;
  StreamOptions options;
  options.rank_threads = 1;
  options.period_s = 0.01;
  options.traced = true;
  Report probe;
  StreamRun run;
  RunStreamPath(
      CutStream(graph, graph.num_nodes() - kBatches * kBatchNodes, kBatchNodes),
      options, &probe, &run);
  run.serving.Stop();
  report->Absorb(probe);
}

}  // namespace perfbench
