// determinism: the ranking pipeline must be bit-reproducible.
//
// Three sub-checks:
//  (a) Iteration over std::unordered_{map,set} in src/rank/, src/ensemble/,
//      src/stream/ and src/serve/. Hash-table iteration order depends on
//      the libstdc++ version, the insertion history, and (for pointer
//      keys) ASLR — when it flows into score accumulation, snapshot files
//      or wire output, two runs over the same corpus disagree. Rank over
//      sorted/indexed views instead, or suppress a genuinely
//      order-insensitive site with NOLINT(determinism): reason.
//  (b) Wall-clock / libc PRNG calls (time, rand, srand, clock) and the
//      std random engines (mt19937, mt19937_64, random_device) anywhere
//      outside src/util/rng — randomness and time must be injected
//      through the seeded utilities so replays reproduce.
//  (c) Clock reads (clock_gettime, gettimeofday, timerfd_*, the
//      std::chrono clocks' ::now(), and util/timer.h's WallTimer, which
//      wraps steady_clock) inside the order-sensitive subsystems of (a).
//      Request handling, ranking and snapshot production must not branch
//      on the time of day; the single sanctioned reader is the serving
//      tier's latency histogram (src/serve/latency_histogram*), which
//      measures durations without feeding them back into results.

#include "analyze/rules.h"

namespace analyze {

namespace {

bool InOrderSensitiveScope(const std::string& path) {
  for (const char* prefix :
       {"src/rank/", "src/ensemble/", "src/stream/", "src/serve/"}) {
    if (path.compare(0, std::string(prefix).size(), prefix) == 0) return true;
  }
  return false;
}

bool IsRngExempt(const std::string& path) {
  return path.compare(0, 12, "src/util/rng") == 0;
}

bool IsClockOrRand(const std::string& s) {
  return s == "time" || s == "rand" || s == "srand" || s == "clock";
}

/// A call of the libc function, not a member method named time()/clock()
/// or SomeClass::time(...).
bool IsLibcClockOrRandCall(const std::vector<Token>& t, size_t i) {
  if (!IsClockOrRand(t[i].text) || !IsPunct(t, i + 1, "(")) return false;
  if (i > 0 && (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->"))) {
    return false;
  }
  return !(i > 0 && IsPunct(t, i - 1, "::") && !IsIdent(t, i - 2, "std"));
}

/// Any mention counts: an engine is PRNG state however it is spelled.
bool IsStdRandomEngine(const std::string& s) {
  return s == "mt19937" || s == "mt19937_64" || s == "random_device";
}

/// The one module allowed to read a clock inside the order-sensitive
/// scopes: latency measurement never feeds back into ranking output.
bool IsHistogramExempt(const std::string& path) {
  const std::string prefix = "src/serve/latency_histogram";
  return path.compare(0, prefix.size(), prefix) == 0;
}

bool IsPosixClockCall(const std::string& s) {
  return s == "clock_gettime" || s == "gettimeofday" ||
         s.compare(0, 8, "timerfd_") == 0;
}

bool IsChronoClockName(const std::string& s) {
  return s == "steady_clock" || s == "system_clock" ||
         s == "high_resolution_clock";
}

}  // namespace

void CheckDeterminism(const LexedFile& f, const FileModel& model,
                      const GlobalIndex& gi, std::vector<Finding>* out) {
  (void)model;
  const std::vector<Token>& t = f.tokens;
  Reporter reporter(f, out);

  auto is_unordered = [&](const std::string& id) {
    return gi.unordered_members.count(id) > 0;
  };
  // File-local unordered declarations (locals, params, non-member fields).
  FileIndex local;
  for (size_t i = 0; i < t.size(); ++i) {
    // Reuse the index's declaration scan lazily: cheap inline version.
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text != "unordered_map" && t[i].text != "unordered_set" &&
        t[i].text != "unordered_multimap" &&
        t[i].text != "unordered_multiset") {
      continue;
    }
    if (!IsPunct(t, i + 1, "<")) continue;
    int nest = 0;
    size_t j = i + 1;
    for (; j < t.size() && j < i + 256; ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      if (t[j].text == "<") ++nest;
      else if (t[j].text == ">") { if (--nest <= 0) { ++j; break; } }
      else if (t[j].text == ">>") { nest -= 2; if (nest <= 0) { ++j; break; } }
      else if (t[j].text == ";" || t[j].text == "{") break;
    }
    while (j < t.size() && t[j].kind == TokKind::kPunct &&
           (t[j].text == "&" || t[j].text == "*")) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent && t[j].text != "const") {
      local.unordered_local.insert(t[j].text);
    }
  }
  auto known_unordered = [&](const std::string& id) {
    return is_unordered(id) || local.unordered_local.count(id) > 0;
  };

  if (InOrderSensitiveScope(f.norm_path)) {
    for (size_t i = 0; i < t.size(); ++i) {
      // (a1) range-for over an unordered container.
      if (IsIdent(t, i, "for") && IsPunct(t, i + 1, "(")) {
        size_t close = MatchForward(t, i + 1);
        int nest = 0;
        size_t colon = 0;
        for (size_t j = i + 2; j < close; ++j) {
          if (t[j].kind != TokKind::kPunct) continue;
          if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++nest;
          else if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --nest;
          else if (t[j].text == ":" && nest == 0) {
            colon = j;
            break;
          }
        }
        if (colon != 0) {
          for (size_t j = colon + 1; j < close; ++j) {
            if (t[j].kind != TokKind::kIdent) continue;
            if (t[j].text == "this" || t[j].text == "std" ||
                t[j].text == "const" || t[j].text == "auto") {
              continue;
            }
            if (known_unordered(t[j].text)) {
              reporter.Report(
                  t[j].line, "determinism",
                  "range-for over unordered container '" + t[j].text +
                      "' in an order-sensitive subsystem; iterate a sorted "
                      "or indexed view so scores and output are "
                      "reproducible");
            }
            break;  // only the base of the range expression
          }
        }
      }
      // (a2) explicit iterator loops: X.begin() / X->cbegin().
      if (t[i].kind == TokKind::kIdent &&
          (t[i].text == "begin" || t[i].text == "cbegin") &&
          IsPunct(t, i + 1, "(") && i >= 2 &&
          (IsPunct(t, i - 1, ".") || IsPunct(t, i - 1, "->")) &&
          t[i - 2].kind == TokKind::kIdent && known_unordered(t[i - 2].text)) {
        reporter.Report(t[i].line, "determinism",
                        "iterating unordered container '" + t[i - 2].text +
                            "' in an order-sensitive subsystem");
      }
    }
  }

  // (c) Explicit clock reads inside the order-sensitive subsystems. The
  // latency histogram is the sanctioned wall-clock module; everything else
  // in serve/rank/ensemble/stream must take timestamps as inputs.
  if (InOrderSensitiveScope(f.norm_path) && !IsHistogramExempt(f.norm_path)) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      // clock_gettime(...) / gettimeofday(...) / timerfd_*(...)
      if (IsPosixClockCall(t[i].text) && IsPunct(t, i + 1, "(")) {
        reporter.Report(
            t[i].line, "determinism",
            "'" + t[i].text +
                "' reads the clock inside an order-sensitive subsystem; "
                "only src/serve/latency_histogram may read time — take "
                "timestamps as inputs instead");
        continue;
      }
      // steady_clock::now() and friends.
      if (IsChronoClockName(t[i].text) && IsPunct(t, i + 1, "::") &&
          IsIdent(t, i + 2, "now") && IsPunct(t, i + 3, "(")) {
        reporter.Report(
            t[i].line, "determinism",
            "'" + t[i].text +
                "::now()' reads the clock inside an order-sensitive "
                "subsystem; only src/serve/latency_histogram may read "
                "time — take timestamps as inputs instead");
        continue;
      }
      // WallTimer reads steady_clock behind util/timer.h's Clock alias.
      if (t[i].text == "WallTimer") {
        reporter.Report(
            t[i].line, "determinism",
            "'WallTimer' reads the clock (util/timer.h) inside an "
            "order-sensitive subsystem; only src/serve/latency_histogram "
            "may read time — take timestamps as inputs instead");
      }
    }
  }

  // (b) time()/rand() calls and std random engines outside util/rng.
  if (!IsRngExempt(f.norm_path)) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      if (!IsStdRandomEngine(t[i].text) && !IsLibcClockOrRandCall(t, i)) {
        continue;
      }
      reporter.Report(
          t[i].line, "determinism",
          "'" + t[i].text +
              "' is wall-clock/PRNG state outside src/util/rng; inject "
              "time or randomness through the seeded utilities");
    }
  }
}

}  // namespace analyze
