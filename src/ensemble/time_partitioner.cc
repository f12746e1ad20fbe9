#include "ensemble/time_partitioner.h"

#include <algorithm>
#include <map>
#include <string>

namespace scholar {

Result<std::vector<Year>> ComputeSliceBoundaries(const CitationGraph& graph,
                                                 int num_slices,
                                                 PartitionStrategy strategy) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot partition an empty graph");
  }
  if (num_slices < 1) {
    return Status::InvalidArgument("num_slices must be >= 1, got " +
                                   std::to_string(num_slices));
  }
  const Year hi = graph.max_year();

  std::vector<Year> boundaries;
  if (strategy == PartitionStrategy::kEqualSpan) {
    // The spans cover the known years only (see kUnknownYear); articles
    // with an unknown year sort first and land in every snapshot.
    Year lo = graph.min_year();
    if (lo == kUnknownYear) {
      lo = hi;
      for (NodeId u = 0; u < graph.num_nodes(); ++u) {
        if (graph.year(u) != kUnknownYear) lo = std::min(lo, graph.year(u));
      }
    }
    const double span = static_cast<double>(YearGap(hi, lo) + 1);
    for (int i = 1; i <= num_slices; ++i) {
      const int64_t b =
          int64_t{lo} - 1 +
          static_cast<int64_t>(span * static_cast<double>(i) / num_slices);
      // Clamp into [lo, hi]: a boundary before the first publication year
      // would produce a useless empty snapshot.
      boundaries.push_back(static_cast<Year>(std::clamp<int64_t>(b, lo, hi)));
    }
  } else {
    // Cumulative article counts per distinct year.
    std::map<Year, size_t> per_year;
    for (NodeId u = 0; u < graph.num_nodes(); ++u) ++per_year[graph.year(u)];
    const double total = static_cast<double>(graph.num_nodes());
    double cumulative = 0.0;
    int next_target = 1;
    for (const auto& [year, count] : per_year) {
      cumulative += static_cast<double>(count);
      while (next_target <= num_slices &&
             cumulative + 1e-9 >= total * next_target / num_slices) {
        boundaries.push_back(year);
        ++next_target;
      }
    }
    if (boundaries.empty() || boundaries.back() != hi) {
      boundaries.push_back(hi);
    }
  }

  // Deduplicate (coarse year grids can produce repeats) while keeping order.
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  boundaries.back() = hi;
  return boundaries;
}

}  // namespace scholar
