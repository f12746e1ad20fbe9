// raw-stdout: no std::cout / printf-family output in src/. Library code
// logs through util/logging so severity filtering and redirection keep
// working; tools/ may print (that is their job).

#include "analyze/rules.h"

namespace analyze {

void CheckRawStdout(const LexedFile& f, std::vector<Finding>* out) {
  if (!PathContains(f.norm_path, "src/")) return;
  Reporter reporter(f, out);
  for (const Token& tok : f.tokens) {
    if (tok.kind != TokKind::kIdent) continue;
    const std::string& s = tok.text;
    if (s == "cout" || s == "printf" || s == "fprintf" || s == "puts" ||
        s == "fputs" || s == "putchar") {
      reporter.Report(tok.line, "raw-stdout",
                      "library code must not write to stdio directly (" + s +
                          "); log through SCHOLAR_LOG (util/logging.h) so "
                          "severity filtering keeps working");
    }
  }
}

}  // namespace analyze
