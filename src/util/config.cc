#include "util/config.h"

#include <cstdio>

#include "util/logging.h"
#include "util/string_util.h"

namespace scholar {

Result<Config> Config::FromArgs(int argc, const char* const* argv) {
  Config config;
  for (int i = 0; i < argc; ++i) {
    std::string_view arg = argv[i];
    while (StartsWith(arg, "-")) arg.remove_prefix(1);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("expected key=value, got '" +
                                     std::string(argv[i]) + "'");
    }
    std::string key(Trim(arg.substr(0, eq)));
    if (key.empty()) {
      return Status::InvalidArgument("empty key in '" + std::string(argv[i]) +
                                     "'");
    }
    config.Set(key, std::string(Trim(arg.substr(eq + 1))));
  }
  return config;
}

Result<Config> Config::FromString(std::string_view text) {
  Config config;
  for (std::string_view raw_line : Split(text, '\n')) {
    std::string_view line = raw_line;
    size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("expected key = value, got '" +
                                     std::string(raw_line) + "'");
    }
    std::string key(Trim(line.substr(0, eq)));
    if (key.empty()) {
      return Status::InvalidArgument("empty key in '" + std::string(raw_line) +
                                     "'");
    }
    config.Set(key, std::string(Trim(line.substr(eq + 1))));
  }
  return config;
}

void Config::Set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}

void Config::SetInt(const std::string& key, int64_t value) {
  Set(key, std::to_string(value));
}

void Config::SetDouble(const std::string& key, double value) {
  // 17 significant digits read back as the same double.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  Set(key, buf);
}

void Config::SetBool(const std::string& key, bool value) {
  Set(key, value ? "true" : "false");
}

bool Config::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

Result<std::string> Config::GetString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound("no key '" + key + "'");
  return it->second;
}

Result<int64_t> Config::GetInt(const std::string& key) const {
  SCHOLAR_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  return ParseInt64(raw);
}

Result<double> Config::GetDouble(const std::string& key) const {
  SCHOLAR_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  return ParseDouble(raw);
}

Result<bool> Config::GetBool(const std::string& key) const {
  SCHOLAR_ASSIGN_OR_RETURN(std::string raw, GetString(key));
  std::string lower = ToLower(raw);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  return Status::InvalidArgument("not a bool: '" + raw + "'");
}

std::string Config::GetStringOr(const std::string& key,
                                const std::string& fallback) const {
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int64_t Config::GetIntOr(const std::string& key, int64_t fallback) const {
  if (!Has(key)) return fallback;
  Result<int64_t> r = GetInt(key);
  SCHOLAR_CHECK(r.ok()) << "config key '" << key
                        << "': " << r.status().ToString();
  return r.value();
}

double Config::GetDoubleOr(const std::string& key, double fallback) const {
  if (!Has(key)) return fallback;
  Result<double> r = GetDouble(key);
  SCHOLAR_CHECK(r.ok()) << "config key '" << key
                        << "': " << r.status().ToString();
  return r.value();
}

bool Config::GetBoolOr(const std::string& key, bool fallback) const {
  if (!Has(key)) return fallback;
  Result<bool> r = GetBool(key);
  SCHOLAR_CHECK(r.ok()) << "config key '" << key
                        << "': " << r.status().ToString();
  return r.value();
}

std::vector<std::string> Config::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [k, v] : values_) keys.push_back(k);
  return keys;
}

std::string Config::ToString() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    out += k;
    out += " = ";
    out += v;
    out += "\n";
  }
  return out;
}

}  // namespace scholar
