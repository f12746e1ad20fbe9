// materialize-snapshot: no ExtractSnapshot() calls outside the time
// slicer itself. Each materialization copies O(V+E) per snapshot; every
// ranker takes the ensemble's zero-copy TemporalCsr views, so ranking
// code never pays that. The materialized oracle lives in tests/, which
// the repo gate does not scan.

#include "analyze/rules.h"

namespace analyze {

void CheckMaterializeSnapshot(const LexedFile& f, std::vector<Finding>* out) {
  if (PathContains(f.norm_path, "src/graph/time_slicer.h") ||
      PathContains(f.norm_path, "src/graph/time_slicer.cc")) {
    return;  // the implementation itself
  }
  const std::vector<Token>& t = f.tokens;
  Reporter reporter(f, out);
  for (size_t i = 0; i < t.size(); ++i) {
    // Only call-shaped mentions fire; `&ExtractSnapshot` copies nothing.
    if (!IsIdent(t, i, "ExtractSnapshot") || !IsPunct(t, i + 1, "(")) continue;
    reporter.Report(t[i].line, "materialize-snapshot",
                    "ExtractSnapshot() copies O(V+E) per snapshot; rank "
                    "through zero-copy TemporalCsr::MakeView() instead");
  }
}

}  // namespace analyze
