#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Infinite samples (refused requests) sort last; keep them exact.
  if (frac == 0 || values[lo] == values[hi]) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> WindowQuantiles(const std::vector<double>& t_s,
                                    const std::vector<double>& values,
                                    double window_s, double q,
                                    size_t min_count) {
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < t_s.size() && i < values.size(); ++i) {
    const size_t w = static_cast<size_t>(std::max(0.0, t_s[i]) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& w : windows) {
    if (w.size() >= min_count) out.push_back(Quantile(std::move(w), q));
  }
  return out;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

namespace {

size_t Beyond(size_t count, double q) {
  // Samples strictly above the q-quantile: floor(count * (1 - q)), computed
  // on the complement so 0.999 does not round down through 0.99899999.
  return static_cast<size_t>(
      std::floor(static_cast<double>(count) * (1.0 - q) + 1e-9));
}

}  // namespace

TailPick HighestSupportedPercentile(size_t count, size_t min_beyond) {
  static constexpr double kCandidates[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
  TailPick pick;
  pick.count = count;
  pick.beyond = Beyond(count, 0.5);
  for (double q : kCandidates) {
    const size_t beyond = Beyond(count, q);
    if (beyond < min_beyond) break;
    pick.q = q;
    pick.beyond = beyond;
    pick.supported = true;
  }
  return pick;
}

std::string DescribeTail(const TailPick& pick) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g n=%zu (%zu beyond)%s", pick.q * 100,
                pick.count, pick.beyond,
                pick.supported ? "" : " [fewer than 10 beyond p50]");
  return buf;
}

bool PercentileSupported(size_t count, double q, size_t min_beyond) {
  return Beyond(count, q) >= min_beyond;
}

double BacklogSlope(const std::vector<BacklogSample>& samples) {
  const double n = static_cast<double>(samples.size());
  if (samples.size() < 2) return 0.0;
  double st = 0, so = 0;
  for (const BacklogSample& s : samples) {
    st += s.t_s;
    so += s.outstanding;
  }
  const double mt = st / n, mo = so / n;
  double cov = 0, var = 0;
  for (const BacklogSample& s : samples) {
    cov += (s.t_s - mt) * (s.outstanding - mo);
    var += (s.t_s - mt) * (s.t_s - mt);
  }
  return var > 0 ? cov / var : 0.0;
}

bool BacklogGrows(const std::vector<BacklogSample>& samples,
                  double rate_per_s, double growth_share) {
  if (samples.size() < 6) return false;
  // Compare the medians of the first and last thirds: a backlog that keeps
  // growing moves them apart by (rate - capacity) * elapsed, while one
  // stall, however deep, moves neither.
  const size_t third = samples.size() / 3;
  std::vector<double> first, last;
  double t_first = 0, t_last = 0;
  for (size_t i = 0; i < third; ++i) {
    first.push_back(samples[i].outstanding);
    t_first += samples[i].t_s;
    const BacklogSample& tail = samples[samples.size() - third + i];
    last.push_back(tail.outstanding);
    t_last += tail.t_s;
  }
  const double elapsed = (t_last - t_first) / static_cast<double>(third);
  return Median(last) - Median(first) > growth_share * rate_per_s * elapsed;
}

}  // namespace perfbench
