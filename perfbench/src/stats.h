#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `values`, the same rule as
/// Python's statistics.quantiles(method="inclusive"). 0 for no values;
/// +inf samples count as the largest.
double Quantile(std::vector<double> values, double q);

double Median(const std::vector<double>& values);

/// Splits the samples (t_s[i], values[i]) into consecutive windows of
/// `window_s` seconds and returns the q-quantile of every window holding at
/// least `min_count` samples. The median of these is a tail that one
/// multi-millisecond stall of the host cannot move.
std::vector<double> WindowQuantiles(const std::vector<double>& t_s,
                                    const std::vector<double>& values,
                                    double window_s, double q,
                                    size_t min_count);

/// The highest percentile of {50, 90, 99, 99.9, 99.99} that still has at
/// least `min_beyond` samples above it, so a reported tail is never a
/// single outlier. `beyond` is how many samples lie past it.
struct TailPick {
  double q = 0.5;
  size_t count = 0;
  size_t beyond = 0;
  bool supported = false;  // false when even p50 has < min_beyond beyond it
};
TailPick HighestSupportedPercentile(size_t count, size_t min_beyond = 10);

/// "p99 n=12345 (123 beyond)" — the line printed next to every tail.
std::string DescribeTail(const TailPick& pick);

/// True when the supported tail of `count` samples reaches `q`, i.e. the
/// named percentile of a metric is backed by >= 10 samples beyond it.
bool PercentileSupported(size_t count, double q, size_t min_beyond = 10);

/// One observation of a load step: seconds since the step began and the
/// number of requests sent but not yet answered (or due but not yet sent).
struct BacklogSample {
  double t_s = 0;
  double outstanding = 0;
};

/// Decides whether a load step's backlog grows: when the median backlog of
/// the last third of the samples exceeds that of the first third by more
/// than `growth_share` of the offered `rate_per_s` times the time between
/// them, the server answers less than (1 - growth_share) of what arrives
/// and the queue keeps lengthening. Medians make one host stall, even a
/// deep one at the end, not count. Fewer than 6 samples never grow.
bool BacklogGrows(const std::vector<BacklogSample>& samples,
                  double rate_per_s, double growth_share = 0.05);

/// Slope (per second) of the least-squares line through the samples,
/// printed beside each ladder rung.
double BacklogSlope(const std::vector<BacklogSample>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
