#ifndef SCHOLARRANK_DATA_DATASET_H_
#define SCHOLARRANK_DATA_DATASET_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/bipartite.h"
#include "graph/citation_graph.h"
#include "util/status.h"

namespace scholar {

/// A scholarly corpus: citation network plus the per-article metadata the
/// rankers and experiments consume.
///
/// Passive aggregate; ConsistencyCheck() verifies the cross-array size
/// invariants after loading or generation. Vectors indexed by NodeId are
/// either empty (field absent) or exactly graph.num_nodes() long.
struct Corpus {
  std::string name;
  CitationGraph graph;

  /// Stable external article ids (e.g., the #index of AMiner). Empty when
  /// the source had none; then the dense NodeId doubles as the id.
  std::vector<uint64_t> external_ids;

  /// Venue index per article (into venue_names), -1 when unknown.
  std::vector<int32_t> venues;
  std::vector<std::string> venue_names;

  /// Article titles; empty strings (or an empty vector) when absent.
  std::vector<std::string> titles;

  /// Paper-author incidence; num_papers() is 0 when author data is absent.
  PaperAuthors authors;

  /// Latent "true" article impact used as evaluation ground truth. Present
  /// only for synthetic corpora (real corpora get ground truth from
  /// external labels instead).
  std::vector<double> true_impact;

  size_t num_articles() const { return graph.num_nodes(); }
  size_t num_citations() const { return graph.num_edges(); }
  bool has_ground_truth() const { return !true_impact.empty(); }
  bool has_authors() const { return authors.num_papers() > 0; }

  /// Verifies all size invariants; Corruption on mismatch.
  Status ConsistencyCheck() const;
};

/// Reads the AMiner citation-network V8 text format:
///
///   #* title
///   #@ author1;author2
///   #t year
///   #c venue
///   #index 42
///   #% 7          (one line per reference, by external index)
///   (blank line separates records)
///
/// Unknown tags are ignored. References to articles absent from the file
/// are dropped (their count is logged); articles without a year get
/// kUnknownYear replaced by the corpus minimum year.
///
/// Both entry points read the whole input in blocks into one buffer (no
/// seeks, so pipes work) and parse it in one pass; the buffer is freed
/// before the graph is built. A failed read is IOError; malformed text is
/// the Status of its first bad line or record, in file order.
Result<Corpus> ReadAMinerCorpus(std::istream* in, const std::string& name);
Result<Corpus> ReadAMinerCorpusFile(const std::string& path);

/// Writes a corpus in the AMiner V8 format (titles/venues/authors included
/// when present). Round-trips with ReadAMinerCorpus.
Status WriteAMinerCorpus(const Corpus& corpus, std::ostream* out);
Status WriteAMinerCorpusFile(const Corpus& corpus, const std::string& path);

/// Tab-separated two-file interchange format.
///
/// articles.tsv: node_id <TAB> year <TAB> venue_name <TAB> a1;a2;...
/// citations.tsv: src_node_id <TAB> dst_node_id
///
/// Node ids must be dense 0..n-1 in the articles file (any order).
Result<Corpus> ReadTsvCorpus(std::istream* articles, std::istream* citations,
                             const std::string& name);
Result<Corpus> ReadTsvCorpusFiles(const std::string& articles_path,
                                  const std::string& citations_path);
Status WriteTsvCorpus(const Corpus& corpus, std::ostream* articles,
                      std::ostream* citations);
Status WriteTsvCorpusFiles(const Corpus& corpus,
                           const std::string& articles_path,
                           const std::string& citations_path);

}  // namespace scholar

#endif  // SCHOLARRANK_DATA_DATASET_H_
