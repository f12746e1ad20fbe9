#include "metrics.h"

#include <sched.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "rank/kernel/simd.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef>* defs = new std::vector<MetricDef>{
      {"setup_s", "s"},
      {"batch_e2e_s", "s"},
      {"peak_rss_mb", "MB"},
      {"read_p50_ms", "ms"},
      {"fresh_p50_ms", "ms"},
      {"fresh_p90_ms", "ms"},
  };
  return *defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef>* defs = new std::vector<MetricDef>{
      {"data.parse_s", "s"},
      {"data.parse_mb_per_s", "MB/s"},
      {"graph.tcsr_build_ms", "ms"},
      {"graph.tcsr_identity", "count"},
      {"rank.twpr_weights_ms", "ms"},
      {"rank.sweeps", "count"},
      {"rank.edge_visits", "count"},
      {"rank.ns_per_edge_visit", "ns"},
      {"ensemble.rank_corpus_s", "s"},
      {"ensemble.rank_graph_s", "s"},
      {"ensemble.path_gap_s", "s"},
      {"ensemble.path_score_diffs", "count"},
      {"serve.snapshot_build_ms", "ms"},
      {"serve.snapshot_write_ms", "ms"},
      {"serve.snapshot_load_ms", "ms"},
      {"serve.snapshot_bytes", "bytes"},
      {"serve.start_ms", "ms"},
      {"serve.read_p99_ms", "ms"},
      {"serve.read_max_qps", "req/s"},
      {"serve.engine_ns_per_req", "ns"},
      {"serve.ping_rtt_p50_us", "us"},
      {"serve.server_p99_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.requests", "count"},
      {"serve.shed", "count"},
      {"serve.install_us", "us"},
      {"stream.decode_us", "us"},
      {"stream.ingest_ms", "ms"},
      {"stream.rank_warm_ms", "ms"},
      {"stream.warm_iterations", "count"},
      {"stream.cold_iterations", "count"},
      {"stream.publish_ms", "ms"},
      {"stream.visible_lag_ms", "ms"},
      {"loadgen.late_p99_ms", "ms"},
      {"loadgen.sent", "count"},
      {"trace.overhead_pct", "%"},
  };
  return *defs;
}

void Report::Set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = value;
}

bool Report::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return values_.count(name) > 0;
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Report::Failed(uint64_t n, const std::string& what) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  failed_ += n;
  correct_ = false;
  std::fprintf(stderr, "perfbench: %llu failed: %s\n",
               static_cast<unsigned long long>(n), what.c_str());
}

void Report::CheckFailed(const std::string& what) {
  Attempt();
  Failed(1, "check: " + what);
}

void Report::Absorb(const Report& probe) {
  std::map<std::string, double> values;
  bool correct;
  uint64_t attempted, failed;
  {
    std::lock_guard<std::mutex> lock(probe.mu_);
    values = probe.values_;
    correct = probe.correct_;
    attempted = probe.attempted_;
    failed = probe.failed_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  values_.insert(values.begin(), values.end());  // keeps existing keys
  correct_ = correct_ && correct;
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::FinalJson(bool traced) {
  const std::vector<MetricDef>& defs =
      traced ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    const bool measured = Has(def.name) && std::isfinite(Get(def.name));
    if (!measured) {
      CheckFailed(std::string("metric not measured: ") + def.name);
      continue;
    }
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, Get(def.name),
                  def.unit);
    metrics += buf;
  }
  std::lock_guard<std::mutex> lock(mu_);
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(1, attempted_)),
                static_cast<unsigned long long>(failed_));
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string HostStamp(const char* build_type) {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      model = line.substr(colon + 2);
    }
    break;
  }
  long l1d = 0, l2 = 0, l3 = 0;
#ifdef _SC_LEVEL1_DCACHE_SIZE
  l1d = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: nproc(affinity)=%zu cpu=\"%s\" l1d=%ldK l2=%ldK "
                "l3=%ldK simd=%s build=%s",
                UsableCpus(), model.c_str(), l1d / 1024, l2 / 1024,
                l3 / 1024, scholar::kernel::SimdIsaName(), build_type);
  return buf;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int field = 0; field < 10 && stat; ++field) {
    unsigned long long v = 0;
    stat >> v;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

namespace {

long ResidentPages() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident;
}

}  // namespace

RssSampler::~RssSampler() {
  running_ = false;
  if (thread_.joinable()) thread_.join();
}

void RssSampler::Start() {
  peak_pages_ = ResidentPages();
  running_ = true;
  thread_ = std::thread([this] {
    while (running_) {
      const long pages = ResidentPages();
      if (pages > peak_pages_) peak_pages_ = pages;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

double RssSampler::StopPeakMb() {
  running_ = false;
  if (thread_.joinable()) thread_.join();
  const long pages = std::max(peak_pages_.load(), ResidentPages());
  return static_cast<double>(pages) * sysconf(_SC_PAGESIZE) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
