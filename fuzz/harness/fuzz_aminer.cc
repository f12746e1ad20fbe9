// Fuzz target (c): the AMiner corpus reader.
//
// The richest untrusted decoder in the tree: a tagged record format with
// titles, author lists, venues, external ids, and cross-record reference
// resolution. Both the record scanner and the dense-id remapping must hold
// up under arbitrary bytes.

#include <cstdint>
#include <sstream>
#include <string>

#include "data/dataset.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInputBytes = size_t{1} << 20;
  if (size > kMaxInputBytes) return 0;
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream in(bytes);
  auto corpus = scholar::ReadAMinerCorpus(&in, "fuzz");
  if (!corpus.ok()) return 0;
  // A corpus the reader accepts must satisfy its own invariants; a parse
  // that "succeeds" into an inconsistent corpus is as bad as a crash.
  scholar::Status check = corpus.value().ConsistencyCheck();
  if (!check.ok()) __builtin_trap();

  // It must also survive its own writer: the written text reads back to
  // the same graph, ids, venues, titles and author incidence.
  std::stringstream text;
  if (!scholar::WriteAMinerCorpus(corpus.value(), &text).ok()) {
    __builtin_trap();
  }
  auto back = scholar::ReadAMinerCorpus(&text, "fuzz");
  if (!back.ok()) __builtin_trap();
  const scholar::Corpus& a = corpus.value();
  const scholar::Corpus& b = back.value();
  if (!(a.graph == b.graph) || a.external_ids != b.external_ids ||
      a.venues != b.venues || a.venue_names != b.venue_names ||
      a.titles != b.titles || !(a.authors == b.authors)) {
    __builtin_trap();
  }
  return 0;
}
