// unchecked-read: no raw memcpy() and no mutable reinterpret_cast in the
// files that decode untrusted bytes. Those are how out-of-bounds reads
// from attacker-controlled buffers happen; every byte-to-value conversion
// goes through the bounds-checked ByteReader (util/byte_reader.h), whose
// own two low-level reads are the sanctioned NOLINT(unchecked-read)
// sites. `reinterpret_cast<const ...>` stays legal: that is the write
// path, serializing trusted in-memory state.

#include "analyze/rules.h"

namespace analyze {

namespace {

/// True for the untrusted-input decoders. Matches by boundary-anchored
/// path fragment, so the fixture tree (which mirrors src/) is scoped the
/// same way.
bool IsParserFile(const std::string& path) {
  for (const char* p :
       {"graph/graph_io", "data/dataset", "data/ground_truth",
        "serve/snapshot", "serve/request_framer", "util/byte_reader",
        "stream/edge_batch"}) {
    if (PathContains(path, p)) return true;
  }
  return false;
}

}  // namespace

void CheckUncheckedRead(const LexedFile& f, std::vector<Finding>* out) {
  if (!IsParserFile(f.norm_path)) return;
  const std::vector<Token>& t = f.tokens;
  Reporter reporter(f, out);
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsIdent(t, i, "memcpy") && IsPunct(t, i + 1, "(")) {
      reporter.Report(t[i].line, "unchecked-read",
                      "raw memcpy() in a parser file; decode through the "
                      "bounds-checked ByteReader (util/byte_reader.h) or mark "
                      "the sanctioned low-level site NOLINT(unchecked-read): "
                      "reason");
    } else if (IsIdent(t, i, "reinterpret_cast") && IsPunct(t, i + 1, "<") &&
               !IsIdent(t, i + 2, "const")) {
      reporter.Report(t[i].line, "unchecked-read",
                      "mutable reinterpret_cast in a parser file; decode "
                      "through the bounds-checked ByteReader "
                      "(util/byte_reader.h) or mark the sanctioned low-level "
                      "site NOLINT(unchecked-read): reason");
    }
  }
}

}  // namespace analyze
