#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Every metric the benchmark prints, with its unit. Untraced runs print
/// the end-to-end set, traced runs the per-layer set; BENCHMARK.json lists
/// the same names.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// What one run measured and checked. Thread-safe: the stream workload's
/// reader thread reports while the epoch loop does.
class Report {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  /// Counts operations for the `attempted` / `failed` fields. Any failure
  /// makes the run incorrect.
  void Attempt(uint64_t n = 1);
  void Failed(uint64_t n, const std::string& what);
  /// A failed output check: one attempt, failed.
  void CheckFailed(const std::string& what);

  /// Takes from `probe` every metric this report lacks, and adds its
  /// attempts, failures and correctness. Layer probes measure into a report
  /// of their own, so they never overwrite what the workload measured.
  void Absorb(const Report& probe);

  /// The final stdout line: {"correct","attempted","failed","metrics"} with
  /// the end-to-end (traced = false) or per-layer (traced = true) set.
  /// A metric missing from the set makes the run incorrect.
  std::string FinalJson(bool traced);

 private:
  mutable std::mutex mu_;  // guards everything below
  std::map<std::string, double> values_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The host a run measured on: usable CPUs from the affinity mask, CPU
/// model, caches, the gather ISA the rank kernel dispatches to, and the
/// build type. Printed at the top of every run.
std::string HostStamp(const char* build_type);
size_t UsableCpus();

/// Cumulative CPU time the hypervisor gave to other guests (the "steal"
/// column of /proc/stat) and all CPU time, in clock ticks. The share of
/// the difference between two readings is printed after every run: the
/// figures of a run with a high share are the host's, not the program's.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
CpuTicks ReadCpuTicks();


/// Samples the resident set every 2 ms on a background thread; Stop()
/// returns the peak in MB since Start().
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Start();
  double StopPeakMb();

 private:
  std::atomic<bool> running_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
