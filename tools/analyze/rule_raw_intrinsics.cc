// raw-intrinsics: SIMD intrinsics are confined to src/rank/kernel/, the
// home of the host ISA detection. Every ranker is portable C++ whose
// scores are bit-identical at every thread count, so an intrinsic anywhere
// else in src/ is a portability and bit-identity hazard. Flags _mm_/_mm256_/_mm512_ calls, __m128/__m256/__m512 vector
// types, and *intrin.h includes; tools, tests and benches are free.

#include "analyze/rules.h"

namespace analyze {

namespace {

/// True when the include names an x86 SIMD intrinsics header
/// (immintrin.h, x86intrin.h, emmintrin.h, ...).
bool IsIntrinsicsHeader(const std::string& path) {
  const std::string base = Basename(path);
  const std::string suffix = "intrin.h";
  return base.size() >= suffix.size() &&
         base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

void CheckRawIntrinsics(const LexedFile& f, std::vector<Finding>* out) {
  if (!PathContains(f.norm_path, "src/")) return;
  if (PathContains(f.norm_path, "src/rank/kernel/")) return;  // the one home
  Reporter reporter(f, out);
  for (const Include& inc : f.includes) {
    if (!IsIntrinsicsHeader(inc.path)) continue;
    reporter.Report(inc.line, "raw-intrinsics",
                    "#include <" + inc.path +
                        "> outside src/rank/kernel/; SIMD code belongs there, "
                        "next to the host ISA detection (rank/kernel/simd.h)");
  }
  for (const Token& tok : f.tokens) {
    if (tok.kind != TokKind::kIdent) continue;
    const std::string& s = tok.text;
    if (HasPrefix(s, "_mm_") || HasPrefix(s, "_mm256_") ||
        HasPrefix(s, "_mm512_") || HasPrefix(s, "__m128") ||
        HasPrefix(s, "__m256") || HasPrefix(s, "__m512")) {
      reporter.Report(tok.line, "raw-intrinsics",
                      "raw SIMD intrinsic '" + s +
                          "' outside src/rank/kernel/; move vector work "
                          "there, or mark a deliberate exception "
                          "NOLINT(raw-intrinsics): reason");
    }
  }
}

}  // namespace analyze
