#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <limits>
#include <memory>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

constexpr int64_t kBacklogBucketNs = 10'000'000;  // 10 ms

int ConnectLoopback(uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct ThreadResult {
  LoadResult r;
  std::vector<double> backlog_by_bucket;  // -1: no sample in that bucket
};

/// One generator thread: one non-blocking connection, one epoll loop.
class Worker {
 public:
  Worker(const Schedule& schedule, const LoadOptions& options,
         size_t index, ThreadResult* out)
      : schedule_(schedule),
        options_(options),
        stride_(std::max<size_t>(1, options.threads)),
        end_(std::min(schedule.size(), options.count)),
        next_(index),
        out_(out) {}

  ~Worker() {
    if (fd_ >= 0) ::close(fd_);
    if (epfd_ >= 0) ::close(epfd_);
  }

  bool Connect() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    fd_ = ConnectLoopback(options_.port, /*nonblocking=*/true);
    if (epfd_ < 0 || fd_ < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd_, &ev) == 0;
  }

  /// Runs the schedule with request 0's t=0 at absolute time `start_ns`.
  void Run(int64_t start_ns) {
    // Wake-ups are timed to the send schedule; the default 50 us timer
    // slack would add that much jitter to every send.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    start_ns_ = start_ns;
    LoadResult& r = out_->r;
    const size_t mine = next_ < end_ ? (end_ - next_ + stride_ - 1) / stride_ : 0;
    r.latency_ms.reserve(mine);
    r.sched_s.reserve(mine);
    r.late_ms.reserve(mine);
    const int64_t last_at = end_ == 0 ? 0 : At(end_ - 1);
    for (;;) {
      const int64_t now = NowNs() - start_ns_;
      // Send everything that is due; never wait on replies first.
      while (next_ < end_ && At(next_) <= now) {
        if (!dead_) {
          out_buf_ += schedule_.Line(next_);
          fifo_.push_back(static_cast<uint32_t>(next_));
          ++r.sent;
          r.late_ms.push_back(static_cast<double>(now - At(next_)) / 1e6);
        } else {
          ++r.dropped;
        }
        next_ += stride_;
      }
      Flush();
      SampleBacklog(now);

      const bool all_sent = next_ >= end_;
      if (all_sent && fifo_.empty()) break;
      if (all_sent && now > last_at + kDrainTimeoutNs) break;
      int64_t wait_ns = 1'000'000;
      if (!all_sent) wait_ns = std::clamp<int64_t>(At(next_) - now, 0, wait_ns);
      timespec ts{0, static_cast<long>(wait_ns)};
      epoll_event ev{};
      const int n = ::epoll_pwait2(epfd_, &ev, 1, &ts, nullptr);
      if (n < 0 && errno != EINTR) break;
      if (n > 0 && (ev.events & EPOLLOUT)) Flush();
      if (n > 0 && (ev.events & (EPOLLIN | EPOLLHUP | EPOLLERR))) Receive();
    }
    r.dropped += fifo_.size();
    fifo_.clear();
  }

 private:
  /// After the last scheduled send, how long to wait for missing replies
  /// before counting them as dropped.
  static constexpr int64_t kDrainTimeoutNs = 2'000'000'000;
  /// Every n-th request is traced as a "loadgen.request" span.
  static constexpr size_t kTraceEvery = 64;

  void Flush() {
    if (dead_) return;
    while (out_off_ < out_buf_.size()) {
      const ssize_t n = ::send(fd_, out_buf_.data() + out_off_,
                               out_buf_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Kill();
      return;
    }
    if (out_off_ == out_buf_.size()) {
      out_buf_.clear();
      out_off_ = 0;
    }
    const bool want_out = !out_buf_.empty();
    if (want_out != want_out_) {
      epoll_event ev{};
      ev.events = want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
      ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd_, &ev);
      want_out_ = want_out;
    }
  }

  void Receive() {
    if (dead_) return;
    LoadResult& r = out_->r;
    char buffer[64 * 1024];
    bool closed = false;
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n > 0) {
        in_buf_.append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      closed = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      break;
    }
    const int64_t now_abs = NowNs();
    size_t begin = 0;
    for (;;) {
      const size_t nl = in_buf_.find('\n', begin);
      if (nl == std::string::npos) break;
      std::string_view line(in_buf_.data() + begin, nl - begin);
      begin = nl + 1;
      if (fifo_.empty()) {
        ++r.errors;  // a reply nobody asked for
        continue;
      }
      const uint32_t idx = fifo_.front();
      fifo_.pop_front();
      const int64_t sched_abs = start_ns_ + At(idx);
      const bool ok = line.substr(0, 2) == "OK";
      r.latency_ms.push_back(
          ok ? static_cast<double>(now_abs - sched_abs) / 1e6
             : std::numeric_limits<double>::infinity());
      r.sched_s.push_back(static_cast<double>(At(idx)) / 1e9);
      if (ok) {
        ++r.ok;
      } else if (line == "BUSY") {
        ++r.shed;
      } else {
        ++r.errors;
      }
      if (schedule_[idx].check) r.checked.emplace_back(idx, std::string(line));
      if (idx % kTraceEvery == 0) {
        Tracer::Get().Record("loadgen.request", sched_abs, now_abs,
                             options_.trace_parent, idx);
      }
    }
    in_buf_.erase(0, begin);
    if (closed) Kill();  // the rest of the fifo is dropped
  }

  int64_t At(size_t i) const {
    return static_cast<int64_t>(static_cast<double>(schedule_[i].at_ns) *
                                options_.time_scale);
  }

  void Kill() {
    if (dead_) return;
    dead_ = true;
    out_->r.dropped += fifo_.size();
    fifo_.clear();
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd_, nullptr);
  }

  void SampleBacklog(int64_t now) {
    if (now < 0) return;
    const size_t bucket = static_cast<size_t>(now / kBacklogBucketNs);
    std::vector<double>& b = out_->backlog_by_bucket;
    if (bucket < b.size()) return;
    b.resize(bucket + 1, -1.0);
    b[bucket] = static_cast<double>(fifo_.size());
  }

  const Schedule& schedule_;
  const LoadOptions& options_;
  const size_t stride_;
  const size_t end_;  // requests [0, end_) are sent
  size_t next_;
  int64_t start_ns_ = 0;
  ThreadResult* out_;
  int epfd_ = -1;
  int fd_ = -1;
  bool dead_ = false;
  bool want_out_ = false;
  std::string out_buf_;
  size_t out_off_ = 0;
  std::string in_buf_;
  std::deque<uint32_t> fifo_;  // schedule indices awaiting a reply
};

}  // namespace

LoadResult RunOpenLoop(const Schedule& schedule,
                       const LoadOptions& options) {
  const size_t threads = std::max<size_t>(1, options.threads);
  std::vector<ThreadResult> results(threads);
  std::vector<std::unique_ptr<Worker>> workers;
  LoadResult merged;
  // Connect everything before the clock starts; the first send is due 2 ms
  // after the last connection is up.
  for (size_t t = 0; t < threads; ++t) {
    workers.push_back(
        std::make_unique<Worker>(schedule, options, t, &results[t]));
    if (!workers.back()->Connect()) {
      merged.connect_failed = true;
      return merged;
    }
  }
  const int64_t start_ns = NowNs() + 2'000'000;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&workers, t, start_ns] { workers[t]->Run(start_ns); });
  }
  for (std::thread& th : pool) th.join();
  workers.clear();

  size_t buckets = 0;
  for (const ThreadResult& tr : results) {
    buckets = std::max(buckets, tr.backlog_by_bucket.size());
  }
  std::vector<double> backlog(buckets, 0.0);
  std::vector<bool> seen(buckets, false);
  size_t total = 0;
  for (const ThreadResult& tr : results) total += tr.r.latency_ms.size();
  merged.latency_ms.reserve(total);
  merged.sched_s.reserve(total);
  merged.late_ms.reserve(total);
  for (ThreadResult& tr : results) {
    LoadResult& r = tr.r;
    merged.sent += r.sent;
    merged.ok += r.ok;
    merged.errors += r.errors;
    merged.shed += r.shed;
    merged.dropped += r.dropped;
    merged.latency_ms.insert(merged.latency_ms.end(), r.latency_ms.begin(),
                             r.latency_ms.end());
    merged.sched_s.insert(merged.sched_s.end(), r.sched_s.begin(),
                          r.sched_s.end());
    merged.late_ms.insert(merged.late_ms.end(), r.late_ms.begin(),
                          r.late_ms.end());
    for (auto& c : r.checked) merged.checked.push_back(std::move(c));
    r = LoadResult();  // free the per-thread copy before the next merge
    for (size_t b = 0; b < tr.backlog_by_bucket.size(); ++b) {
      if (tr.backlog_by_bucket[b] < 0) continue;
      backlog[b] += tr.backlog_by_bucket[b];
      seen[b] = true;
    }
  }
  for (size_t b = 0; b < buckets; ++b) {
    if (seen[b]) {
      merged.backlog.push_back(
          {static_cast<double>(b) * kBacklogBucketNs / 1e9, backlog[b]});
    }
  }
  return merged;
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool LineClient::Connect(uint16_t port) {
  fd_ = ConnectLoopback(port, /*nonblocking=*/false);
  return fd_ >= 0;
}

bool LineClient::Call(const std::string& line, std::string* reply) {
  if (fd_ < 0) return false;
  const std::string request = line + "\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = pending_.find('\n');
    if (nl != std::string::npos) {
      reply->assign(pending_, 0, nl);
      pending_.erase(0, nl + 1);
      return true;
    }
    char buffer[64 * 1024];
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(buffer, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
