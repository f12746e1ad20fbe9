#ifndef SCHOLARRANK_GRAPH_TYPES_H_
#define SCHOLARRANK_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>

namespace scholar {

/// Dense article index within one CitationGraph (0..n-1).
using NodeId = uint32_t;

/// Dense edge index within one CitationGraph (0..m-1).
using EdgeId = uint64_t;

/// Publication time, in whole years (e.g., 1998). The library only assumes
/// years are totally ordered integers; finer granularities can be encoded by
/// scaling (e.g., months since epoch).
using Year = int32_t;

/// Sentinel for "no node" (absent in a snapshot, unknown mapping, ...).
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "unknown publication year".
///
/// The rule for unknown years: kUnknownYear is an ordinary Year that sorts
/// before every known year, so an article with an unknown year reads as
/// older than every known one (TemporalCsr and ExtractSnapshot already
/// order it that way, and every snapshot keeps it). Take every difference
/// of two years with YearGap: an int32 subtraction involving the sentinel
/// overflows. Quantities that span years (equal-span slice boundaries)
/// span the known years only.
inline constexpr Year kUnknownYear = std::numeric_limits<Year>::min();

/// `later - earlier`, exact for every pair of Year values, kUnknownYear
/// included.
inline constexpr int64_t YearGap(Year later, Year earlier) {
  return static_cast<int64_t>(later) - static_cast<int64_t>(earlier);
}

}  // namespace scholar

#endif  // SCHOLARRANK_GRAPH_TYPES_H_
