#include "obs/exposition.h"

#include <cmath>
#include <cstdio>

namespace lpa::obs {

namespace {

bool isNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool isNameChar(char c) {
  return isNameStartChar(c) || (c >= '0' && c <= '9');
}

/// %.17g round-trips every double; integral values (the common case for
/// gauges) render without a decimal point or exponent so the document
/// stays pleasant to read and trivially parseable.
std::string num(double v) {
  if (std::isfinite(v) && v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

bool isValidExpositionName(std::string_view name) {
  if (name.empty() || !isNameStartChar(name.front())) return false;
  for (char c : name) {
    if (!isNameChar(c)) return false;
  }
  return true;
}

std::string sanitizeMetricName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

std::string lintMetricName(std::string_view name) {
  if (name.empty()) return "metric name is empty";
  for (char c : name) {
    if (!isNameChar(c) && c != '.' && c != '-') {
      return "metric name \"" + std::string(name) +
             "\" contains invalid character '" + std::string(1, c) +
             "' (allowed: [a-zA-Z0-9_:.-])";
    }
  }
  const std::string sanitized = sanitizeMetricName(name);
  if (!isValidExpositionName(sanitized)) {
    return "metric name \"" + std::string(name) + "\" sanitizes to \"" +
           sanitized + "\", which is not a valid exposition name " +
           "([a-zA-Z_:][a-zA-Z0-9_:]*)";
  }
  return "";
}

std::string renderPrometheus(const MetricsSnapshot& snap,
                             std::string_view prefix) {
  std::string out;
  out.reserve(4096);
  const auto family = [&](std::string_view rawName) -> std::string {
    if (!lintMetricName(rawName).empty()) return "";  // release-build guard
    return std::string(prefix) + sanitizeMetricName(rawName);
  };

  for (const auto& [rawName, value] : snap.counters) {
    const std::string name = family(rawName);
    if (name.empty()) continue;
    out += "# TYPE " + name + " counter\n";
    out += name + " " + num(value) + "\n";
  }
  for (const auto& [rawName, value] : snap.gauges) {
    const std::string name = family(rawName);
    if (name.empty()) continue;
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + num(value) + "\n";
  }
  return out;
}

}  // namespace lpa::obs
