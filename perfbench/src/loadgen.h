#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "stats.h"

namespace perfbench {

struct LoadOptions {
  uint16_t port = 0;
  /// Generator threads, each with one connection; thread t sends the
  /// requests whose schedule index is t modulo `threads`.
  size_t threads = 1;
  /// Send only the first `count` requests, request i due at
  /// schedule[i].at_ns * time_scale: a Poisson schedule at rate R scaled by
  /// R / R' is a Poisson schedule at rate R'.
  size_t count = SIZE_MAX;
  double time_scale = 1.0;
  /// Parent span of the sampled "loadgen.request" spans.
  int64_t trace_parent = -1;
};

struct LoadResult {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;   // ERR replies
  uint64_t shed = 0;     // BUSY replies (server backpressure)
  uint64_t dropped = 0;  // sent but never answered
  /// Per answered request, milliseconds from its *scheduled* send to its
  /// reply, so a stall also delays every request scheduled behind it. A
  /// reply other than OK is +inf: a refused request misses any limit.
  std::vector<double> latency_ms;
  /// Per answered request, its scheduled send in seconds from the start.
  std::vector<double> sched_s;
  /// Per sent request, how late the generator put it on the wire.
  std::vector<double> late_ms;
  /// Outstanding requests (sent, unanswered) every 10 ms, summed over
  /// threads.
  std::vector<BacklogSample> backlog;
  /// Replies of the requests flagged `check`, by schedule index.
  std::vector<std::pair<uint32_t, std::string>> checked;
  bool connect_failed = false;

  uint64_t answered() const { return ok + errors + shed; }
  uint64_t failures() const { return errors + shed + dropped; }
};

/// Open-loop generator: sends every request of `schedule` at its scheduled
/// time on non-blocking sockets, one epoll loop per thread, and never waits
/// on a reply before sending (requests due together share one write).
/// Replies are matched in order per connection.
LoadResult RunOpenLoop(const Schedule& schedule, const LoadOptions& options);

/// Blocking single-connection line client for probes (first top_k, ping,
/// freshness polls).
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(uint16_t port);
  /// Sends `line` (without '\n') and reads one reply line.
  bool Call(const std::string& line, std::string* reply);

 private:
  int fd_ = -1;
  std::string pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
