#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock); the one clock the benchmark reads.
int64_t NowNs();

/// One timed call into a layer, as the benchmark saw it from outside.
struct Span {
  const char* name = "";  // static string, e.g. "data.parse"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  // id of the enclosing span, -1 at top level
  int64_t req = -1;     // request id (reads) or epoch id (stream), -1 = none
  int tid = 0;          // small per-thread number for the trace viewer
};

/// In-memory span recorder. Off by default: when disabled, Begin/End cost
/// one branch and record nothing. Spans are kept in memory and written out
/// once, at exit, as Chrome trace-event JSON (open in Perfetto or
/// chrome://tracing). Thread-safe.
class Tracer {
 public:
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on this thread. Returns the span id (-1 when disabled).
  int64_t Begin(const char* name, int64_t req = -1);
  void End(int64_t id);

  /// Records an already-finished span, e.g. a request timed from its
  /// scheduled send to its reply by the load generator.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t req);

  std::vector<Span> Snapshot() const;
  void Clear();

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> done_;                 // guarded by mu_
  std::map<int64_t, Span> open_;           // guarded by mu_
  int64_t next_id_ = 0;                    // guarded by mu_
};

/// RAII span; a no-op while tracing is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t req = -1)
      : id_(Tracer::Get().Begin(name, req)) {}
  ~ScopedSpan() { Tracer::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// Writes `spans` as a Chrome trace-event JSON object ("X" complete events,
/// microsecond timestamps relative to the earliest span; id/parent/req in
/// args). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);
std::string ChromeTraceJson(const std::vector<Span>& spans);

/// Self time of each span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
/// Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name: call count, total and self nanoseconds.
struct SpanTotals {
  size_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
