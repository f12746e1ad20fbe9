// float-compare: no == / != on floating-point values in src/rank/ and
// src/ensemble/. The bit-identity contract makes accidental epsilon-free
// compares a real bug class there. Exact comparison of scores is
// occasionally *intended* (deterministic tie-breaks under that same
// contract); those sites say so with NOLINT(float-compare): reason.
//
// An operand counts as floating-point when it is a floating literal or an
// identifier the file declares with float/double anywhere (`double x`,
// `const double& x`, `std::vector<double>& xs`) — a file-local heuristic,
// not type inference.

#include "analyze/rules.h"

namespace analyze {

namespace {

bool IsFloatLiteral(const std::string& s) {
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return false;  // hex (incl. hex floats — rare enough to ignore)
  }
  if (s.find('.') != std::string::npos) return true;
  return s.find('e') != std::string::npos || s.find('E') != std::string::npos;
}

}  // namespace

void CheckFloatCompare(const LexedFile& f, std::vector<Finding>* out) {
  if (!PathContains(f.norm_path, "src/rank/") &&
      !PathContains(f.norm_path, "src/ensemble/")) {
    return;
  }
  const std::vector<Token>& t = f.tokens;
  Reporter reporter(f, out);

  // Pass 1: identifiers declared with float/double anywhere in the file.
  std::set<std::string> float_idents;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i, "double") && !IsIdent(t, i, "float")) continue;
    for (size_t j = i + 1; j < t.size() && j < i + 6; ++j) {
      if (t[j].kind == TokKind::kIdent) {
        if (t[j].text == "const") continue;
        float_idents.insert(t[j].text);
        break;
      }
      if (IsPunct(t, j, ">") || IsPunct(t, j, ">>") || IsPunct(t, j, "&") ||
          IsPunct(t, j, "*")) {
        continue;
      }
      break;
    }
  }

  auto operand_is_float = [&](const Token& tok) {
    if (tok.kind == TokKind::kNumber) return IsFloatLiteral(tok.text);
    if (tok.kind == TokKind::kIdent) return float_idents.count(tok.text) > 0;
    return false;
  };

  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsPunct(t, i, "==") && !IsPunct(t, i, "!=")) continue;
    // A nullptr on either side makes this a pointer comparison, however
    // float-flavored the pointee's declaration looked (`vector<double>*`).
    if ((i > 0 && t[i - 1].text == "nullptr") ||
        (i + 1 < t.size() && t[i + 1].text == "nullptr")) {
      continue;
    }
    // Left operand: walk back over one balanced ]/) group to the base
    // identifier (handles `scores[a] ==` and `f(x) ==`).
    bool flt = false;
    if (i > 0) {
      size_t j = i - 1;
      if (IsPunct(t, j, "]") || IsPunct(t, j, ")")) {
        const char* open = t[j].text == "]" ? "[" : "(";
        const std::string close = t[j].text;
        int nest = 0;
        while (j > 0) {
          if (IsPunct(t, j, close.c_str())) ++nest;
          if (IsPunct(t, j, open) && --nest == 0) break;
          --j;
        }
        if (j > 0) --j;  // token before the opening bracket
      }
      flt = operand_is_float(t[j]);
    }
    // Right operand: first ident/number, skipping unary sign, parens and
    // `std ::` qualification.
    for (size_t k = i + 1; !flt && k < t.size() && k < i + 6; ++k) {
      if (IsPunct(t, k, "(") || IsPunct(t, k, "-") || IsPunct(t, k, "+") ||
          IsPunct(t, k, "::") || IsIdent(t, k, "std")) {
        continue;
      }
      if (t[k].kind == TokKind::kIdent || t[k].kind == TokKind::kNumber) {
        flt = operand_is_float(t[k]);
      }
      break;
    }
    if (flt) {
      reporter.Report(t[i].line, "float-compare",
                      "floating-point " + t[i].text +
                          " comparison in the bit-identity-critical ranking "
                          "core; use an explicit tolerance, or "
                          "NOLINT(float-compare): reason when exact equality "
                          "is the contract");
    }
  }
}

}  // namespace analyze
