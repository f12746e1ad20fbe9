#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

int ThreadNumber() {
  static std::atomic<int> next{1};
  thread_local int tid = next.fetch_add(1);
  return tid;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_stack;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: used until exit
  return *tracer;
}

int64_t Tracer::Begin(const char* name, int64_t req) {
  if (!enabled()) return -1;
  Span span;
  span.name = name;
  span.parent = t_stack.empty() ? -1 : t_stack.back();
  span.req = req;
  span.tid = ThreadNumber();
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  open_.emplace(span.id, span);
  t_stack.push_back(span.id);
  return span.id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_ns = end;
  done_.push_back(it->second);
  open_.erase(it);
  auto pos = std::find(t_stack.begin(), t_stack.end(), id);
  if (pos != t_stack.end()) t_stack.erase(pos);
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t req) {
  if (!enabled()) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.req = req;
  span.tid = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  done_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> spans = done_;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return spans;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  done_.clear();
  open_.clear();
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Span names are static identifiers ([a-z0-9._]) and need no escaping.
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"id\":%lld,\"parent\":%lld,\"req\":%lld}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.req));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << ChromeTraceJson(spans);
  out.close();
  return static_cast<bool>(out);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to the parent.
    int64_t covered = 0;
    int64_t run_begin = 0, run_end = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, p.start_ns);
      e = std::min(e, p.end_ns);
      if (e <= b) continue;
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = b;
      run_end = e;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

}  // namespace perfbench
