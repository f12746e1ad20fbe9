#include "util/status.h"

#include <cstdio>
#include <cstdlib>

namespace scholar {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  out += ": ";
  out += message_;
  return out;
}

namespace internal {

void AbortOnBadResultAccess(const Status& status) {
  // Process-fatal path: write straight to stderr rather than through
  // util/logging, which sits above Status in the layering.
  std::fprintf(stderr, "FATAL: accessed value of failed Result: %s\n",  // NOLINT(raw-stdout): process-fatal path below util/logging
               status.ToString().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace scholar
