#include "rank/kernel/kernel_options.h"

namespace scholar {
namespace kernel {

Result<SimdMode> SimdModeFromString(const std::string& s) {
  if (s == "auto") return SimdMode::kAuto;
  if (s == "scalar") return SimdMode::kScalar;
  if (s == "avx2") return SimdMode::kAvx2;
  if (s == "legacy") return SimdMode::kLegacy;
  return Status::InvalidArgument(
      "unknown simd mode '" + s + "' (expected auto|scalar|avx2|legacy)");
}

Result<ScorePrecision> ScorePrecisionFromString(const std::string& s) {
  if (s == "double" || s == "f64") return ScorePrecision::kDouble;
  if (s == "float" || s == "f32") return ScorePrecision::kFloat;
  return Status::InvalidArgument("unknown score_precision '" + s +
                                 "' (expected double|float)");
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kScalar:
      return "scalar";
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kLegacy:
      return "legacy";
  }
  return "unknown";
}

const char* ScorePrecisionName(ScorePrecision precision) {
  return precision == ScorePrecision::kFloat ? "float" : "double";
}

Result<KernelOptions> KernelOptionsFromConfig(const Config& config) {
  KernelOptions opts;
  if (config.Has("simd")) {
    SCHOLAR_ASSIGN_OR_RETURN(auto s, config.GetString("simd"));
    SCHOLAR_ASSIGN_OR_RETURN(opts.simd, SimdModeFromString(s));
  }
  if (config.Has("score_precision")) {
    SCHOLAR_ASSIGN_OR_RETURN(auto s, config.GetString("score_precision"));
    SCHOLAR_ASSIGN_OR_RETURN(opts.precision, ScorePrecisionFromString(s));
  }
  if (config.Has("adaptive")) {
    SCHOLAR_ASSIGN_OR_RETURN(opts.adaptive, config.GetBool("adaptive"));
  }
  if (config.Has("adaptive_tolerance")) {
    SCHOLAR_ASSIGN_OR_RETURN(opts.adaptive_tolerance,
                             config.GetDouble("adaptive_tolerance"));
    if (!(opts.adaptive_tolerance >= 0.0)) {
      return Status::InvalidArgument(
          "adaptive_tolerance must be non-negative");
    }
  }
  return opts;
}

}  // namespace kernel
}  // namespace scholar
