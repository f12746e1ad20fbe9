#include "util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace scholar {
namespace {

std::atomic<LogLevel> g_log_level{LogLevel::kInfo};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

void SetLogLevel(LogLevel level) { g_log_level.store(level); }
LogLevel GetLogLevel() { return g_log_level.load(); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelTag(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  // This is the logging sink itself — the one place stdio is the point.
  std::fputs(stream_.str().c_str(), stderr);  // NOLINT(raw-stdout): the logging sink itself
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace internal
}  // namespace scholar
