// Fixture: sanctioned ExtractSnapshot uses stay quiet — a reasoned
// NOLINT on the oracle call, and mentions that are not calls.
#include "graph/time_slicer.h"

namespace scholar {

Snapshot ExtractSnapshotForOracle(const CitationGraph& g);

void CompareAgainstOracle(const CitationGraph& g) {
  // The oracle the zero-copy path is verified against.
  Snapshot oracle = ExtractSnapshot(g, 2000);  // NOLINT(materialize-snapshot): the oracle itself
  (void)oracle;
  // Naming the function without calling it is fine.
  auto* oracle_fn = &ExtractSnapshot;
  (void)oracle_fn;
}

}  // namespace scholar
