// include-layering: the module DAG
//
//   util -> graph -> {data, rank} -> {ensemble, eval} -> core -> stream
//        -> serve -> cli
//
// admits no back-edges or same-layer edges: a quoted project #include may
// only name a module on a strictly lower layer (or the includer's own
// module). Back-edges and same-layer edges are how cycles start; they
// also let the untrusted-input surface (parsers, serve) leak upward. rank
// and data share a layer (both sit on graph, neither may see the other),
// as do ensemble and eval. stream sits between core and serve: the
// ingestion pipeline may drive any ranking kernel, but publication goes
// through an injected callback — stream never names serve, while serve
// and cli may consume stream. A deliberate exception carries its reason
// in a NOLINT(include-layering) marker on the #include line.

#include "analyze/rules.h"

namespace analyze {

namespace {

/// Layer of a module, bottom (0) to top; -1 when not a project module.
int ModuleLayer(const std::string& module) {
  static const std::map<std::string, int> kLayers = {
      {"util", 0},     {"graph", 1}, {"data", 2},   {"rank", 2},
      {"ensemble", 3}, {"eval", 3},  {"core", 4},   {"stream", 5},
      {"serve", 6},    {"cli", 7}};
  auto it = kLayers.find(module);
  return it == kLayers.end() ? -1 : it->second;
}

/// Module of a normalized path ("src/rank/twpr.cc" -> "rank"). Empty when
/// the file is not under src/<module>/: tools, tests and benches may
/// include anything.
std::string FileModule(const std::string& norm_path) {
  if (norm_path.compare(0, 4, "src/") != 0) return "";
  const size_t slash = norm_path.find('/', 4);
  return slash == std::string::npos ? "" : norm_path.substr(4, slash - 4);
}

}  // namespace

void CheckIncludeLayering(const LexedFile& f, std::vector<Finding>* out) {
  const std::string from = FileModule(f.norm_path);
  const int from_layer = ModuleLayer(from);
  if (from_layer < 0) return;  // not library code under src/<module>/
  Reporter reporter(f, out);
  for (const Include& inc : f.includes) {
    if (!inc.quoted) continue;  // system headers are outside the DAG
    const size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // local/relative include
    const std::string to = inc.path.substr(0, slash);
    if (to == from) continue;  // intra-module includes are free
    const int to_layer = ModuleLayer(to);
    if (to_layer < 0 || to_layer < from_layer) continue;
    reporter.Report(inc.line, "include-layering",
                    "module '" + from + "' (layer " +
                        std::to_string(from_layer) + ") must not include '" +
                        inc.path + "' from module '" + to + "' (layer " +
                        std::to_string(to_layer) +
                        "); the module DAG is util -> graph -> {data, rank} "
                        "-> {ensemble, eval} -> core -> stream -> serve -> "
                        "cli");
  }
}

}  // namespace analyze
