// include-order: a .cc file's own header is its first #include, which
// proves the header is self-contained.

#include "analyze/rules.h"

namespace analyze {

void CheckIncludeOrder(const LexedFile& f, std::vector<Finding>* out) {
  const std::string base = Basename(f.norm_path);
  if (base.size() < 4 || base.compare(base.size() - 3, 3, ".cc") != 0) return;
  const std::string own_header = base.substr(0, base.size() - 3) + ".h";
  for (size_t i = 0; i < f.includes.size(); ++i) {
    const Include& inc = f.includes[i];
    if (!inc.quoted || Basename(inc.path) != own_header) continue;
    if (i != 0) {
      Reporter reporter(f, out);
      reporter.Report(inc.line, "include-order",
                      "own header \"" + inc.path +
                          "\" must be the first #include (proves the header "
                          "is self-contained)");
    }
    return;  // only the first own-header include is checked
  }
}

}  // namespace analyze
