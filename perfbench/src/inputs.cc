#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "data/profiles.h"
#include "data/synthetic.h"
#include "graph/graph_builder.h"
#include "stream/edge_batch.h"
#include "util/logging.h"
#include "util/rng.h"
#include "trace.h"

namespace perfbench {

using scholar::CitationGraph;
using scholar::NodeId;

scholar::Corpus MakeCorpus(size_t articles, uint64_t seed) {
  ScopedSpan span("setup.corpus");
  scholar::Result<scholar::Corpus> corpus = scholar::GenerateSyntheticCorpus(
      scholar::AMinerLikeProfile(articles, seed), "aminer");
  SCHOLAR_CHECK_OK(corpus.status());
  return std::move(corpus).value();
}

std::string ShuffledAMinerText(const scholar::Corpus& corpus, uint64_t seed) {
  ScopedSpan span("setup.aminer_text");
  std::ostringstream text;
  SCHOLAR_CHECK_OK(scholar::WriteAMinerCorpus(corpus, &text));
  const std::string all = std::move(text).str();
  // Records are separated by one blank line ("\n\n").
  std::vector<std::string_view> records;
  std::string_view rest(all);
  while (!rest.empty()) {
    const size_t end = rest.find("\n\n");
    const size_t len = end == std::string_view::npos ? rest.size() : end + 2;
    records.push_back(rest.substr(0, len));
    rest.remove_prefix(len);
  }
  scholar::Rng rng(seed ^ 0x5eedf11eULL);
  rng.Shuffle(&records);
  std::string out;
  out.reserve(all.size());
  for (std::string_view r : records) out += r;
  return out;
}

StreamInputs CutStream(const CitationGraph& graph, size_t base_nodes,
                       size_t batch_nodes) {
  const size_t n = graph.num_nodes();
  SCHOLAR_CHECK(base_nodes > 0 && base_nodes < n && batch_nodes > 0);
  StreamInputs out;
  scholar::GraphBuilder builder;
  for (size_t i = 0; i < base_nodes; ++i) {
    builder.AddNode(graph.year(static_cast<NodeId>(i)));
  }
  for (NodeId u = 0; u < static_cast<NodeId>(base_nodes); ++u) {
    for (NodeId v : graph.References(u)) {
      if (v < static_cast<NodeId>(base_nodes)) {
        SCHOLAR_CHECK_OK(builder.AddEdge(u, v));
      }
    }
  }
  out.base = std::move(builder).Build().value();
  uint64_t sequence = 1;
  for (size_t start = base_nodes; start < n; start += batch_nodes) {
    const size_t end = std::min(n, start + batch_nodes);
    scholar::stream::EdgeBatch batch;
    batch.sequence = sequence++;
    for (size_t i = start; i < end; ++i) {
      batch.node_years.push_back(graph.year(static_cast<NodeId>(i)));
    }
    for (NodeId u = static_cast<NodeId>(start); u < static_cast<NodeId>(end);
         ++u) {
      for (NodeId v : graph.References(u)) {
        if (v < static_cast<NodeId>(end)) batch.edges.push_back({u, v});
      }
    }
    std::ostringstream wire;
    SCHOLAR_CHECK_OK(scholar::stream::WriteEdgeBatch(batch, &wire));
    out.wire.push_back(std::move(wire).str());
    out.first_new_id.push_back(start);
    out.batch_nodes.push_back(end - start);
  }
  return out;
}

namespace {

/// Inverse-CDF sampler of Zipf(s) over ids [0, n): id k has weight
/// (k + 1)^-s. One table build, then a binary search per draw, so a
/// million-request schedule takes a fraction of a second.
class ZipfTable {
 public:
  ZipfTable(uint32_t n, double s) : cdf_(n) {
    double total = 0;
    for (uint32_t k = 0; k < n; ++k) {
      total += std::pow(static_cast<double>(k) + 1.0, -s);
      cdf_[k] = total;
    }
  }
  uint32_t Sample(scholar::Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    const size_t k = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<uint32_t>(std::min(k, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Schedule MakeSchedule(double rate_per_s, double seconds, uint32_t id_space,
                      double check_fraction, uint64_t seed) {
  SCHOLAR_CHECK(rate_per_s > 0 && id_space > 0);
  constexpr uint32_t kK = 10;
  const ZipfTable zipf(id_space, 1.1);
  static const std::vector<double> kWeights = {25, 40, 10, 15, 10};
  static const Kind kKinds[] = {Kind::kTopK, Kind::kScore, Kind::kRank,
                                Kind::kPercentile, Kind::kNeighbors};
  scholar::Rng rng(seed);
  Schedule schedule;
  const size_t expected = static_cast<size_t>(rate_per_s * seconds * 1.05) + 16;
  schedule.requests.reserve(expected);
  schedule.text.reserve(expected * 20);
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  double t_ns = 0;
  for (;;) {
    t_ns += rng.NextExponential(rate_per_s) * 1e9;
    if (t_ns >= static_cast<double>(end_ns)) break;
    Request r;
    r.at_ns = static_cast<int64_t>(t_ns);
    r.kind = kKinds[rng.NextDiscrete(kWeights)];
    r.id = zipf.Sample(&rng);
    r.k = kK;
    r.line_begin = static_cast<uint32_t>(schedule.text.size());
    std::string& text = schedule.text;
    switch (r.kind) {
      case Kind::kTopK:
        r.offset = static_cast<uint16_t>(kK * rng.NextBounded(10));
        text += "top_k " + std::to_string(r.k) + " " + std::to_string(r.offset);
        break;
      case Kind::kScore:
        text += "score " + std::to_string(r.id);
        break;
      case Kind::kRank:
        text += "rank " + std::to_string(r.id);
        break;
      case Kind::kPercentile:
        text += "percentile " + std::to_string(r.id);
        break;
      case Kind::kNeighbors:
        r.citers = rng.NextBounded(2) == 0;
        text += "neighbors " + std::to_string(r.id) +
                (r.citers ? " citers " : " refs ") + std::to_string(r.k);
        break;
    }
    text += '\n';
    r.line_len = static_cast<uint16_t>(text.size() - r.line_begin);
    r.check = rng.NextBernoulli(check_fraction);
    schedule.requests.push_back(r);
  }
  return schedule;
}

}  // namespace perfbench
