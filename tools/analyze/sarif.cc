// SARIF 2.1.0 writer. Hand-rolled JSON emission (no JSON library in the
// toolchain); every dynamic string goes through Escape so the output is
// valid JSON for any finding message.

#include "analyze/output.h"

#include <cstdio>
#include <fstream>

namespace analyze {

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RuleMeta {
  const char* id;
  const char* desc;
};

const RuleMeta kRules[] = {
    {"unchecked-status",
     "Status/Result<T> return values must be assigned, returned, or "
     "inspected; void casts are flagged too."},
    {"hot-loop-alloc",
     "No allocation, container growth, or string construction inside "
     "ranking hot-path loops (init-scope exempt)."},
    {"lock-order",
     "The cross-file mutex acquisition graph must be acyclic; acquiring a "
     "held mutex is a self-deadlock."},
    {"determinism",
     "No unordered-container iteration or clock reads (WallTimer included) "
     "in order-sensitive subsystems, and no wall-clock/PRNG calls or std "
     "random engines outside src/util/rng."},
    {"mutex-guard",
     "A class declaring a mutex member annotates at least one member "
     "GUARDED_BY; an unannotated mutex is invisible to -Wthread-safety."},
    {"float-compare",
     "No ==/!= on floating-point values in src/rank/ and src/ensemble/, "
     "where the bit-identity contract makes epsilon-free compares a bug "
     "class."},
    {"raw-stdout",
     "No std::cout/printf-family output in src/; library code logs through "
     "util/logging."},
    {"include-order",
     "A .cc file's own header is its first #include, proving the header "
     "self-contained."},
    {"materialize-snapshot",
     "No ExtractSnapshot() calls outside src/graph/time_slicer; ranking "
     "code consumes zero-copy TemporalCsr views."},
    {"include-layering",
     "A quoted #include names only a strictly lower layer of util -> graph "
     "-> {data, rank} -> {ensemble, eval} -> core -> stream -> serve -> "
     "cli, or its own module."},
    {"unchecked-read",
     "No raw memcpy() or mutable reinterpret_cast in the untrusted-input "
     "decoders; bytes are decoded through the bounds-checked ByteReader."},
    {"raw-intrinsics",
     "No SIMD intrinsics, vector types, or *intrin.h includes in src/ "
     "outside src/rank/kernel/."},
    {"shared-mutation",
     "By-ref captures written inside parallel bodies (ParallelFor, "
     "ThreadPool::Submit, std::thread) need a Mutex, a std::atomic, or a "
     "per-chunk subscript."},
    {"dangling-capture",
     "A by-ref-capturing lambda must not escape its defining scope via "
     "Submit/Schedule, std::thread, member storage, containers, return, or "
     "a callee whose may-outlive summary escapes its callable argument."},
    {"atomic-confinement",
     "Explicit weak memory orders (relaxed/acquire/release/acq_rel/"
     "consume) are confined to src/serve/latency_histogram* and "
     "src/util/thread_pool*; elsewhere they need a reasoned NOLINT."},
    {"guard-consistency",
     "A field accessed under a MutexLock in one function must not be "
     "accessed bare in code reachable from a parallel context (cross-TU, "
     "annotation-free)."},
    {"stale-nolint",
     "A reason-carrying NOLINT naming any rule but lock-order must still "
     "suppress a live finding on its line; stale markers are violations."},
};

}  // namespace

bool WriteSarif(const std::string& path,
                const std::vector<Finding>& findings) {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\n"
     << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
        "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"scholar_analyze\",\n"
     << "          \"informationUri\": \"tools/scholar_analyze.cc\",\n"
     << "          \"version\": \"1.0.0\",\n"
     << "          \"rules\": [\n";
  for (size_t i = 0; i < sizeof(kRules) / sizeof(kRules[0]); ++i) {
    os << "            {\"id\": \"" << kRules[i].id
       << "\", \"shortDescription\": {\"text\": \"" << Escape(kRules[i].desc)
       << "\"}}" << (i + 1 < sizeof(kRules) / sizeof(kRules[0]) ? "," : "")
       << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\n"
       << "          \"ruleId\": \"" << Escape(f.rule) << "\",\n"
       << "          \"level\": \"error\",\n"
       << "          \"message\": {\"text\": \"" << Escape(f.message)
       << "\"},\n"
       << "          \"locations\": [\n"
       << "            {\"physicalLocation\": {\"artifactLocation\": "
          "{\"uri\": \""
       << Escape(f.file) << "\"}, \"region\": {\"startLine\": " << f.line
       << "}}}\n"
       << "          ],\n"
       << "          \"partialFingerprints\": {\"scholarLineHash/v1\": \"";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(f.line_hash));
    os << buf << "\"}";
    if (f.baseline_suppressed) {
      os << ",\n          \"suppressions\": [{\"kind\": \"external\"}]";
    }
    os << "\n        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return static_cast<bool>(os);
}

}  // namespace analyze
