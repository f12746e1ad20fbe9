#ifndef SCHOLARRANK_CLI_COMMANDS_H_
#define SCHOLARRANK_CLI_COMMANDS_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/config.h"
#include "util/status.h"

namespace scholar {
namespace cli {

/// Loads a corpus as directed by config keys, in priority order:
///   aminer=<path>                      AMiner V8 text file
///   articles=<path> citations=<path>   TSV pair
///   profile=<aminer|mag> n=<count> [seed=<s>]   synthetic generation
Result<Corpus> LoadCorpus(const Config& config);

/// `generate`: synthesize a corpus and write it out.
/// Keys: profile, n, seed, plus outputs: out_aminer=<path> and/or
/// out_articles=<path> out_citations=<path> and/or out_graph=<path>
/// (native binary). At least one output is required.
Status RunGenerate(const Config& config, std::ostream* out);

/// `stats`: print graph statistics and component structure of a corpus.
Status RunStats(const Config& config, std::ostream* out);

/// `rank`: rank a corpus and emit "node_id,year,citations,score,rank" CSV.
/// Keys: corpus inputs (see LoadCorpus), ranker=<name> and its parameters,
/// top=<k> (0 = all rows, default 50).
Status RunRank(const Config& config, std::ostream* out);

/// `eval`: benchmark rankers on a synthetic corpus with ground truth.
/// Keys: profile/n/seed, rankers=<comma list> (default: all known),
/// pairs=<count>.
Status RunEval(const Config& config, std::ostream* out);

/// `convert`: read a corpus in one format and write it in others (same
/// output keys as `generate`).
Status RunConvert(const Config& config, std::ostream* out);

/// `snapshot`: rank a corpus and write the serving artifact.
/// Keys: corpus inputs (see LoadCorpus), ranker=<name> and its parameters,
/// out_snapshot=<path> (required), snapshot_id=<id>.
Status RunSnapshot(const Config& config, std::ostream* out);

/// `stream`: replay a corpus as a live ingest stream — split it into a
/// base graph plus year-ordered EdgeBatches, then run the epoch loop
/// (apply batch, re-rank the grown graph, republish through
/// SnapshotManager).
/// Keys: corpus inputs (see LoadCorpus), base_fraction=<f> (default 0.5),
/// batches=<b> (default 4), ranker=<name> (default pagerank), mode=<m>
/// (only "full"; anything else fails), out_batches=<path> (write the
/// generated wire-format stream), port=<p|0> (serve live during the
/// replay), oracle=true|false (default true: cold-rank the final graph
/// and report warm-vs-cold drift and iteration savings).
Status RunStream(const Config& config, std::ostream* out);

/// `serve`: answer line-protocol TCP queries from a snapshot file.
/// Keys: snapshot=<path> (required), port=<p> (default 7601, 0 =
/// ephemeral), threads=<t>, max_k=, cache_entries=, allow_reload=.
/// Prints "serving ... port=<p>" once listening, then blocks until SIGINT
/// (graceful: in-flight requests finish before exit).
Status RunServe(const Config& config, std::ostream* out);

/// Dispatches argv[1] to a command; `help` / unknown prints usage.
/// Returns the process exit code.
int Main(int argc, const char* const* argv, std::ostream* out,
         std::ostream* err);

/// The usage text.
std::string UsageText();

}  // namespace cli
}  // namespace scholar

#endif  // SCHOLARRANK_CLI_COMMANDS_H_
