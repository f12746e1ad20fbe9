#include "cli/commands.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <ctime>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>

#include "core/registry.h"
#include "core/scholar_ranker.h"
#include "data/ground_truth.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "eval/benchmark_sets.h"
#include "graph/components.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "stream/edge_batch.h"
#include "stream/epoch_pipeline.h"
#include "stream/incremental_ranker.h"
#include "stream/streaming_graph.h"
#include "util/string_util.h"

namespace scholar {
namespace cli {
namespace {

/// Writes the corpus to every requested output key; counts how many fired.
Status WriteOutputs(const Corpus& corpus, const Config& config,
                    std::ostream* out, size_t* outputs_written) {
  *outputs_written = 0;
  if (config.Has("out_aminer")) {
    SCHOLAR_ASSIGN_OR_RETURN(std::string path, config.GetString("out_aminer"));
    SCHOLAR_RETURN_NOT_OK(WriteAMinerCorpusFile(corpus, path));
    *out << "wrote AMiner text: " << path << "\n";
    ++*outputs_written;
  }
  if (config.Has("out_articles") || config.Has("out_citations")) {
    if (!config.Has("out_articles") || !config.Has("out_citations")) {
      return Status::InvalidArgument(
          "TSV output needs both out_articles= and out_citations=");
    }
    SCHOLAR_ASSIGN_OR_RETURN(std::string articles,
                             config.GetString("out_articles"));
    SCHOLAR_ASSIGN_OR_RETURN(std::string citations,
                             config.GetString("out_citations"));
    SCHOLAR_RETURN_NOT_OK(WriteTsvCorpusFiles(corpus, articles, citations));
    *out << "wrote TSV: " << articles << " + " << citations << "\n";
    ++*outputs_written;
  }
  if (config.Has("out_graph")) {
    SCHOLAR_ASSIGN_OR_RETURN(std::string path, config.GetString("out_graph"));
    SCHOLAR_RETURN_NOT_OK(WriteGraphBinaryFile(corpus.graph, path));
    *out << "wrote binary graph: " << path << "\n";
    ++*outputs_written;
  }
  return Status::OK();
}

Result<Corpus> GenerateFromConfig(const Config& config) {
  const std::string profile = config.GetStringOr("profile", "aminer");
  const int64_t n = config.GetIntOr("n", 20000);
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  const uint64_t seed =
      static_cast<uint64_t>(config.GetIntOr("seed", 20180416));
  SCHOLAR_ASSIGN_OR_RETURN(
      SyntheticOptions options,
      ProfileByName(profile, static_cast<size_t>(n), seed));
  return GenerateSyntheticCorpus(options, profile);
}

}  // namespace

Result<Corpus> LoadCorpus(const Config& config) {
  if (config.Has("aminer")) {
    SCHOLAR_ASSIGN_OR_RETURN(std::string path, config.GetString("aminer"));
    return ReadAMinerCorpusFile(path);
  }
  if (config.Has("articles") || config.Has("citations")) {
    if (!config.Has("articles") || !config.Has("citations")) {
      return Status::InvalidArgument(
          "TSV input needs both articles= and citations=");
    }
    SCHOLAR_ASSIGN_OR_RETURN(std::string articles,
                             config.GetString("articles"));
    SCHOLAR_ASSIGN_OR_RETURN(std::string citations,
                             config.GetString("citations"));
    return ReadTsvCorpusFiles(articles, citations);
  }
  if (config.Has("profile") || config.Has("n")) {
    return GenerateFromConfig(config);
  }
  return Status::InvalidArgument(
      "no corpus input: pass aminer=<path>, articles=+citations=<paths>, or "
      "profile=<aminer|mag> n=<count>");
}

Status RunGenerate(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, GenerateFromConfig(config));
  *out << "generated '" << corpus.name << "': " << corpus.num_articles()
       << " articles, " << corpus.num_citations() << " citations\n";
  size_t outputs = 0;
  SCHOLAR_RETURN_NOT_OK(WriteOutputs(corpus, config, out, &outputs));
  if (outputs == 0) {
    return Status::InvalidArgument(
        "no output requested: pass out_aminer=, out_articles=+out_citations=,"
        " or out_graph=");
  }
  return Status::OK();
}

Status RunStats(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(config));
  GraphStats stats = ComputeGraphStats(corpus.graph);
  *out << "corpus: " << corpus.name << "\n" << ToString(stats);
  ComponentStats components = ComputeWeakComponents(corpus.graph);
  *out << "weak components:  " << components.num_components << "\n"
       << "giant component:  " << components.giant_size << " ("
       << FormatDouble(corpus.num_articles() == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(components.giant_size) /
                                 static_cast<double>(corpus.num_articles()),
                       1)
       << "%)\n"
       << "isolated:         " << components.num_isolated << "\n";
  if (corpus.has_authors()) {
    *out << "authors:          " << corpus.authors.num_authors() << "\n";
  }
  if (!corpus.venue_names.empty()) {
    *out << "venues:           " << corpus.venue_names.size() << "\n";
  }
  return Status::OK();
}

Status RunRank(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(config));
  SCHOLAR_ASSIGN_OR_RETURN(ScholarRanker ranker,
                           ScholarRanker::Create(config));
  SCHOLAR_ASSIGN_OR_RETURN(RankingOutput ranking,
                           ranker.RankCorpus(corpus));
  const int64_t top = config.GetIntOr("top", 50);
  if (top < 0) return Status::InvalidArgument("top must be >= 0");
  const size_t limit =
      top == 0 ? corpus.num_articles() : static_cast<size_t>(top);

  *out << "node_id,year,citations,score,rank\n";
  for (NodeId id : ranking.Top(limit)) {
    *out << id << "," << corpus.graph.year(id) << ","
         << corpus.graph.InDegree(id) << ","
         << FormatDouble(ranking.scores[id], 8) << "," << ranking.ranks[id]
         << "\n";
  }
  return Status::OK();
}

Status RunEval(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, GenerateFromConfig(config));
  if (!corpus.has_ground_truth()) {
    return Status::FailedPrecondition("eval needs a synthetic corpus");
  }
  EvalSuiteOptions suite_options;
  suite_options.num_pairs =
      static_cast<size_t>(config.GetIntOr("pairs", 50000));
  SCHOLAR_ASSIGN_OR_RETURN(EvalSuite suite,
                           BuildEvalSuite(corpus, suite_options));

  std::vector<std::string> rankers;
  if (config.Has("rankers")) {
    SCHOLAR_ASSIGN_OR_RETURN(std::string list, config.GetString("rankers"));
    for (auto name : Split(list, ',')) {
      if (!Trim(name).empty()) rankers.emplace_back(Trim(name));
    }
  } else {
    rankers = KnownRankerNames();
  }

  *out << "ranker,overall_accuracy,recent_accuracy,same_year_accuracy,"
          "spearman,iterations,seconds\n";
  for (const std::string& name : rankers) {
    SCHOLAR_ASSIGN_OR_RETURN(std::shared_ptr<const Ranker> ranker,
                             MakeRanker(name, config));
    SCHOLAR_ASSIGN_OR_RETURN(RankerEvaluation eval,
                             EvaluateRanker(corpus, *ranker, suite));
    *out << name << "," << FormatDouble(eval.overall_accuracy, 4) << ","
         << FormatDouble(eval.recent_accuracy, 4) << ","
         << FormatDouble(eval.same_year_accuracy, 4) << ","
         << FormatDouble(eval.spearman_truth, 4) << "," << eval.iterations
         << "," << FormatDouble(eval.seconds, 3) << "\n";
  }
  return Status::OK();
}

Status RunSnapshot(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(std::string path, config.GetString("out_snapshot"));
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(config));
  SCHOLAR_ASSIGN_OR_RETURN(ScholarRanker ranker, ScholarRanker::Create(config));
  SCHOLAR_ASSIGN_OR_RETURN(RankingOutput ranking, ranker.RankCorpus(corpus));
  serve::SnapshotMeta meta;
  meta.snapshot_id =
      static_cast<uint64_t>(config.GetIntOr("snapshot_id", 0));
  meta.created_unix = static_cast<int64_t>(
      std::time(nullptr));  // NOLINT(determinism): wall-clock metadata stamp, never a score input
  meta.ranker_name = ranker.name();
  meta.corpus_name = corpus.name;
  SCHOLAR_ASSIGN_OR_RETURN(
      serve::ScoreSnapshot snapshot,
      serve::ScoreSnapshot::Build(corpus.graph, ranking, std::move(meta)));
  SCHOLAR_RETURN_NOT_OK(snapshot.WriteToFile(path));
  *out << "wrote snapshot: " << path << " (" << snapshot.num_nodes()
       << " nodes, " << snapshot.num_edges() << " edges, ranker "
       << ranker.name() << ")\n";
  return Status::OK();
}

namespace {

/// A corpus replayed as an ingest stream: the oldest `base_fraction` of
/// articles as the bootstrap graph, the rest as year-ordered EdgeBatches.
struct StreamPlan {
  CitationGraph base;
  std::vector<stream::EdgeBatch> batches;
  /// Citations of not-yet-streamed articles. The suffix-only contract says
  /// a reference list is complete at publication, so a corpus edge whose
  /// target lands in a *later* window cannot be replayed and is dropped;
  /// the drift oracle ranks the streamed graph, keeping the comparison
  /// exact.
  size_t dropped_forward_edges = 0;
};

Result<StreamPlan> PlanStream(const CitationGraph& graph, double base_fraction,
                              int64_t num_batches) {
  const size_t n = graph.num_nodes();
  if (n < 2) {
    return Status::InvalidArgument("stream needs a corpus with >= 2 articles");
  }
  if (!(base_fraction > 0.0) || !(base_fraction < 1.0)) {
    return Status::InvalidArgument("base_fraction must be in (0, 1)");
  }
  if (num_batches <= 0) {
    return Status::InvalidArgument("batches must be positive");
  }
  const std::vector<Year>& years = graph.years();
  for (size_t i = 1; i < n; ++i) {
    if (years[i] < years[i - 1]) {
      return Status::InvalidArgument(
          "corpus node ids are not year-monotone; streaming replay requires "
          "time-prefix ids (synthetic corpora satisfy this)");
    }
  }
  size_t n_base = static_cast<size_t>(static_cast<double>(n) * base_fraction);
  n_base = std::min(std::max<size_t>(n_base, 1), n - 1);

  StreamPlan plan;
  GraphBuilder builder;
  for (size_t i = 0; i < n_base; ++i) builder.AddNode(years[i]);
  for (NodeId u = 0; u < static_cast<NodeId>(n_base); ++u) {
    for (NodeId v : graph.References(u)) {
      if (v < static_cast<NodeId>(n_base)) {
        SCHOLAR_RETURN_NOT_OK(builder.AddEdge(u, v));
      } else {
        ++plan.dropped_forward_edges;
      }
    }
  }
  SCHOLAR_ASSIGN_OR_RETURN(plan.base, std::move(builder).Build());

  const size_t remaining = n - n_base;
  const size_t windows = std::min<size_t>(
      static_cast<size_t>(num_batches), remaining);
  size_t start = n_base;
  for (size_t b = 0; b < windows; ++b) {
    const size_t count = remaining / windows + (b < remaining % windows);
    const size_t end = start + count;
    stream::EdgeBatch batch;
    batch.sequence = b + 1;
    batch.node_years.assign(years.begin() + start, years.begin() + end);
    // CSR neighbors are sorted and deduplicated, so walking sources in id
    // order yields the strict (src, dst) order the wire format requires.
    for (NodeId u = static_cast<NodeId>(start); u < static_cast<NodeId>(end);
         ++u) {
      for (NodeId v : graph.References(u)) {
        if (v < static_cast<NodeId>(end)) {
          batch.edges.push_back({u, v});
        } else {
          ++plan.dropped_forward_edges;
        }
      }
    }
    plan.batches.push_back(std::move(batch));
    start = end;
  }
  return plan;
}

void PrintEpochRow(const stream::EpochStats& s, std::ostream* out) {
  *out << s.epoch << "," << s.batches_applied << "," << s.num_nodes << ","
       << s.num_edges << "," << s.iterations << ","
       << (s.converged ? "true" : "false") << ","
       << FormatDouble(s.apply_ms, 3) << "," << FormatDouble(s.rank_ms, 3)
       << "," << FormatDouble(s.publish_ms, 3) << "\n";
}

}  // namespace

Status RunStream(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(config));
  SCHOLAR_ASSIGN_OR_RETURN(
      StreamPlan plan,
      PlanStream(corpus.graph, config.GetDoubleOr("base_fraction", 0.5),
                 config.GetIntOr("batches", 4)));
  if (config.Has("out_batches")) {
    SCHOLAR_ASSIGN_OR_RETURN(std::string path, config.GetString("out_batches"));
    SCHOLAR_RETURN_NOT_OK(stream::WriteEdgeBatchFile(plan.batches, path));
    *out << "wrote batch stream: " << path << " (" << plan.batches.size()
         << " batches)\n";
  }

  stream::IncrementalRankerOptions ranker_options;
  ranker_options.ranker = config.GetStringOr("ranker", "pagerank");
  ranker_options.config = config;
  ranker_options.mode = config.GetStringOr("mode", "full");
  SCHOLAR_ASSIGN_OR_RETURN(
      stream::IncrementalRanker ranker,
      stream::IncrementalRanker::Create(ranker_options));

  stream::StreamingGraph streaming(std::move(plan.base));
  serve::SnapshotManager manager;
  stream::EpochPublisher publisher =
      [&](const CitationGraph& graph, const RankResult& result,
          const stream::EpochStats& stats) -> Status {
    RankingOutput ranking;
    ranking.ranks = ScoresToRanks(result.scores);
    ranking.percentiles = RankPercentiles(result.scores);
    ranking.scores = result.scores;
    ranking.iterations = result.iterations;
    ranking.converged = result.converged;
    serve::SnapshotMeta meta;
    meta.snapshot_id = stats.epoch;
    meta.created_unix = static_cast<int64_t>(
        std::time(nullptr));  // NOLINT(determinism): wall-clock metadata stamp, never a score input
    meta.ranker_name = ranker.ranker_name();
    meta.corpus_name = corpus.name;
    SCHOLAR_ASSIGN_OR_RETURN(
        serve::ScoreSnapshot snapshot,
        serve::ScoreSnapshot::Build(graph, ranking, std::move(meta)));
    manager.Install(std::move(snapshot));
    return Status::OK();
  };
  stream::EpochPipeline pipeline(&streaming, &ranker, std::move(publisher));
  SCHOLAR_RETURN_NOT_OK(pipeline.Bootstrap());

  // With port= the replay doubles as a live server: queries are answered
  // from the freshest published epoch while batches keep landing. Each
  // event-loop worker gets its own engine replica over `manager`.
  std::unique_ptr<serve::Server> server;
  if (config.Has("port")) {
    const int64_t port = config.GetIntOr("port", 0);
    if (port < 0 || port > 65535) {
      return Status::InvalidArgument("port must be in [0, 65535]");
    }
    serve::QueryEngineOptions engine_options;
    engine_options.cache_entries =
        static_cast<size_t>(config.GetIntOr("cache_entries", 256));
    engine_options.topk_shards =
        static_cast<size_t>(config.GetIntOr("topk_shards", 0));
    serve::ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(port);
    server_options.num_workers = static_cast<size_t>(
        config.GetIntOr("workers", config.GetIntOr("threads", 4)));
    server = std::make_unique<serve::Server>(&manager, engine_options,
                                             server_options);
    SCHOLAR_RETURN_NOT_OK(server->Start());
    *out << "streaming " << corpus.name << " port=" << server->port() << "\n"
         << std::flush;
  }

  *out << "epoch,applied,nodes,edges,iterations,converged,apply_ms,rank_ms,"
          "publish_ms\n";
  PrintEpochRow(pipeline.history().front(), out);
  for (stream::EdgeBatch& batch : plan.batches) {
    SCHOLAR_ASSIGN_OR_RETURN(stream::EpochStats stats,
                             pipeline.Step(std::move(batch)));
    PrintEpochRow(stats, out);
    *out << std::flush;
  }
  if (server != nullptr) {
    server->Stop();
    server->Wait();
    *out << "server stopped (" << server->connections_accepted()
         << " connections served)\n";
  }

  if (config.GetBoolOr("oracle", true)) {
    SCHOLAR_ASSIGN_OR_RETURN(
        stream::IncrementalRanker cold,
        stream::IncrementalRanker::Create(ranker_options));
    SCHOLAR_ASSIGN_OR_RETURN(RankResult oracle,
                             cold.RankCold(streaming.graph()));
    const std::vector<double>& warm = ranker.previous_scores();
    double max_abs_diff = 0.0;
    for (size_t i = 0; i < warm.size() && i < oracle.scores.size(); ++i) {
      max_abs_diff = std::max(max_abs_diff,
                              std::fabs(warm[i] - oracle.scores[i]));
    }
    *out << "oracle: max_abs_diff=" << FormatDouble(max_abs_diff, 12)
         << " cold_iterations=" << oracle.iterations
         << " warm_total_iterations=" << pipeline.total_iterations() << "\n";
  }
  *out << "stream: generations=" << manager.generation()
       << " dropped_forward_edges=" << plan.dropped_forward_edges << "\n";
  return Status::OK();
}

namespace {

/// SIGINT → one byte down a self-pipe; everything that is not
/// async-signal-safe (mutexes, joins) happens on the watcher thread that
/// reads the other end.
volatile int g_sigint_pipe_wr = -1;

void ServeSigintHandler(int) {
  const char byte = 1;
  if (g_sigint_pipe_wr >= 0) {
    [[maybe_unused]] ssize_t n = ::write(g_sigint_pipe_wr, &byte, 1);
  }
}

}  // namespace

Status RunServe(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(std::string path, config.GetString("snapshot"));
  serve::SnapshotManager manager;
  SCHOLAR_RETURN_NOT_OK(manager.LoadFile(path));
  const std::shared_ptr<const serve::LiveSnapshot> live = manager.Current();

  serve::QueryEngineOptions engine_options;
  engine_options.cache_entries =
      static_cast<size_t>(config.GetIntOr("cache_entries", 256));
  engine_options.max_k = static_cast<size_t>(config.GetIntOr("max_k", 1000));
  engine_options.allow_reload = config.GetBoolOr("allow_reload", true);
  engine_options.topk_shards =
      static_cast<size_t>(config.GetIntOr("topk_shards", 0));

  serve::ServerOptions server_options;
  const int64_t port = config.GetIntOr("port", 7601);
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  server_options.port = static_cast<uint16_t>(port);
  server_options.num_workers = static_cast<size_t>(
      config.GetIntOr("workers", config.GetIntOr("threads", 4)));
  server_options.reuse_port = config.GetBoolOr("reuse_port", true);
  server_options.tcp_nodelay = config.GetBoolOr("tcp_nodelay", true);
  server_options.max_batch_requests =
      static_cast<size_t>(config.GetIntOr("max_batch_requests", 1024));
  serve::Server server(&manager, engine_options, server_options);
  SCHOLAR_RETURN_NOT_OK(server.Start());
  *out << "serving " << live->snapshot.meta().corpus_name << " ("
       << live->snapshot.num_nodes() << " nodes, ranker "
       << live->snapshot.meta().ranker_name << ") port=" << server.port()
       << " workers=" << server_options.num_workers
       << " — Ctrl-C for graceful shutdown\n"
       << std::flush;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    server.Stop();
    return Status::IOError("pipe() for signal handling failed");
  }
  g_sigint_pipe_wr = pipe_fds[1];
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = ServeSigintHandler;
  ::sigaction(SIGINT, &action, &previous);

  std::thread watcher([&server, read_fd = pipe_fds[0]] {  // NOLINT(dangling-capture): watcher.join() below runs before server leaves scope, so the reference cannot dangle
    char byte;
    while (::read(read_fd, &byte, 1) < 0 && errno == EINTR) {
    }
    server.Stop();  // idempotent; also runs on pipe close during teardown
  });
  server.Wait();

  ::sigaction(SIGINT, &previous, nullptr);
  g_sigint_pipe_wr = -1;
  ::close(pipe_fds[1]);  // unblocks the watcher if no signal ever arrived
  watcher.join();
  ::close(pipe_fds[0]);
  *out << "server stopped (" << server.connections_accepted()
       << " connections served)\n";
  return Status::OK();
}

Status RunConvert(const Config& config, std::ostream* out) {
  SCHOLAR_ASSIGN_OR_RETURN(Corpus corpus, LoadCorpus(config));
  size_t outputs = 0;
  SCHOLAR_RETURN_NOT_OK(WriteOutputs(corpus, config, out, &outputs));
  if (outputs == 0) {
    return Status::InvalidArgument("no output requested (out_aminer=, "
                                   "out_articles=+out_citations=, out_graph=)");
  }
  return Status::OK();
}

std::string UsageText() {
  return "scholar_cli <command> [key=value ...]\n"
         "\n"
         "commands:\n"
         "  generate   synthesize a corpus; profile=aminer|mag n=<count>\n"
         "             seed=<s>, outputs: out_aminer= | out_articles= +\n"
         "             out_citations= | out_graph=\n"
         "  stats      graph statistics; input: aminer= | articles= +\n"
         "             citations= | profile= n=\n"
         "  rank       rank a corpus; same inputs plus ranker=<name>,\n"
         "             algorithm keys (sigma=, num_slices=, ...), top=<k>,\n"
         "             threads=<t> (0 = all cores, 1 = serial; scores are\n"
         "             bit-identical at every setting)\n"
         "  eval       benchmark rankers on a synthetic corpus;\n"
         "             rankers=<a,b,...> pairs=<count>\n"
         "  convert    read one format, write others (generate's out_*)\n"
         "  snapshot   rank a corpus and write the serving artifact;\n"
         "             corpus inputs + ranker keys + out_snapshot=<path>\n"
         "             [snapshot_id=<id>]\n"
         "  stream     replay a corpus as an ingest stream: apply batches,\n"
         "             re-rank the grown graph (linear rankers: one exact\n"
         "             pass; hits: seeded from the last epoch), republish;\n"
         "             base_fraction=<f> batches=<b> ranker=<name>\n"
         "             [out_batches=<path>] [port=<p|0>] [oracle=true|false]\n"
         "  serve      serve a snapshot over line-protocol TCP (N epoll\n"
         "             workers, one SO_REUSEPORT listener + engine replica\n"
         "             each); snapshot=<path> port=<p|0> workers=<n>\n"
         "             [max_k=] [cache_entries=] [allow_reload=true|false]\n"
         "             [topk_shards=<n>] [reuse_port=] [tcp_nodelay=]\n"
         "             [max_batch_requests=]\n"
         "  help       this text\n";
}

int Main(int argc, const char* const* argv, std::ostream* out,
         std::ostream* err) {
  if (argc < 2) {
    *err << UsageText();
    return 2;
  }
  const std::string command = argv[1];
  Result<Config> config = Config::FromArgs(argc - 2, argv + 2);
  if (!config.ok()) {
    *err << "error: " << config.status().ToString() << "\n";
    return 2;
  }
  Status status;
  if (command == "generate") {
    status = RunGenerate(*config, out);
  } else if (command == "stats") {
    status = RunStats(*config, out);
  } else if (command == "rank") {
    status = RunRank(*config, out);
  } else if (command == "eval") {
    status = RunEval(*config, out);
  } else if (command == "convert") {
    status = RunConvert(*config, out);
  } else if (command == "snapshot") {
    status = RunSnapshot(*config, out);
  } else if (command == "stream") {
    status = RunStream(*config, out);
  } else if (command == "serve") {
    status = RunServe(*config, out);
  } else if (command == "help" || command == "--help" || command == "-h") {
    *out << UsageText();
    return 0;
  } else {
    *err << "unknown command '" << command << "'\n" << UsageText();
    return 2;
  }
  if (!status.ok()) {
    *err << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace cli
}  // namespace scholar
