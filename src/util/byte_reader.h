#ifndef SCHOLARRANK_UTIL_BYTE_READER_H_
#define SCHOLARRANK_UTIL_BYTE_READER_H_

#include <algorithm>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace scholar {

/// Bounds-checked decoder over an untrusted byte stream.
///
/// Every parser that decodes other people's bytes (graph_io's binary
/// loader, the ScoreSnapshot deserializer, ...) funnels its raw reads
/// through this helper instead of hand-rolling `istream::read` +
/// `reinterpret_cast`. The contract backing the fuzzing gate is:
/// malformed input can only yield a `false`/`Status` return — never
/// undefined behavior, an unbounded allocation, or a silently short value.
///
/// scholar_analyze's `unchecked-read` rule enforces the funnel at the source
/// level: in parser files, mutable `reinterpret_cast` / `memcpy` from
/// buffers is rejected, and the two low-level call sites inside this class
/// are the only sanctioned ones (marked NOLINT(unchecked-read) below).
class ByteReader {
 public:
  /// `in` must outlive the reader. The stream should be opened in binary
  /// mode; the reader never seeks except inside RemainingBytes().
  explicit ByteReader(std::istream* in) : in_(in) {}

  /// Reads one trivially copyable value. Returns false when the stream
  /// ends first; the stream is then in a failed state and every later
  /// read also returns false, so callers may batch `!r.ReadRaw(&a) ||
  /// !r.ReadRaw(&b)` checks.
  template <typename T>
  [[nodiscard]] bool ReadRaw(T* value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader::ReadRaw requires a trivially copyable type");
    in_->read(reinterpret_cast<char*>(value), sizeof(T));  // NOLINT(unchecked-read): the sanctioned low-level scalar read
    return static_cast<bool>(*in_);
  }

  /// Reads exactly `count` elements into `*out`. Reads are chunked so that
  /// an attacker-declared (absurdly large) count fails with a truncation
  /// error once the stream runs dry instead of attempting one giant
  /// up-front allocation: memory use is bounded by the bytes actually
  /// present in the stream plus one chunk. `what` names the field in the
  /// Corruption message.
  template <typename T>
  [[nodiscard]] Status ReadVector(size_t count, const char* what,
                                  std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ByteReader::ReadVector requires a trivially copyable type");
    constexpr size_t kChunkElements = size_t{1} << 20;
    out->clear();
    while (out->size() < count) {
      const size_t batch = std::min(kChunkElements, count - out->size());
      const size_t old_size = out->size();
      out->resize(old_size + batch);
      in_->read(reinterpret_cast<char*>(out->data() + old_size),  // NOLINT(unchecked-read): the sanctioned low-level bulk read
                static_cast<std::streamsize>(batch * sizeof(T)));
      if (!*in_) {
        return Status::Corruption(std::string("truncated ") + what + " (" +
                                  std::to_string(count) +
                                  " elements declared)");
      }
    }
    return Status::OK();
  }

  /// Reads a u32-length-prefixed string, rejecting declared lengths above
  /// `max_bytes` before allocating. `what` names the field in diagnostics.
  [[nodiscard]] Result<std::string> ReadLengthPrefixedString(
      const char* what, uint32_t max_bytes) {
    uint32_t len = 0;
    if (!ReadRaw(&len)) {
      return Status::Corruption(std::string("truncated ") + what + " length");
    }
    if (len > max_bytes) {
      return Status::Corruption(std::string("implausible ") + what +
                                " length " + std::to_string(len) +
                                " (limit " + std::to_string(max_bytes) + ")");
    }
    std::string s(len, '\0');
    in_->read(s.data(), static_cast<std::streamsize>(len));
    if (!*in_) {
      return Status::Corruption(std::string("truncated ") + what + " payload");
    }
    return s;
  }

  /// Bytes left between the current position and end-of-stream, or nullopt
  /// when the stream is not seekable (a pipe). Restores the read position;
  /// lets fixed-layout decoders reject a header whose declared payload
  /// exceeds the file before reading any of it.
  std::optional<uint64_t> RemainingBytes() {
    if (!*in_) return std::nullopt;
    const std::istream::pos_type here = in_->tellg();
    if (here == std::istream::pos_type(-1)) return std::nullopt;
    in_->seekg(0, std::ios::end);
    const std::istream::pos_type end = in_->tellg();
    in_->seekg(here);
    if (end == std::istream::pos_type(-1) || !*in_ || end < here) {
      return std::nullopt;
    }
    return static_cast<uint64_t>(end - here);
  }

 private:
  std::istream* const in_;  // not owned
};

}  // namespace scholar

#endif  // SCHOLARRANK_UTIL_BYTE_READER_H_
