#include "obs/run_report.h"

#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "obs/fsio.h"

#ifndef LPA_GIT_DESCRIBE
#define LPA_GIT_DESCRIBE "unknown"
#endif

namespace lpa::obs {

RunReport::RunReport(std::string name) : name_(std::move(name)) {}

void RunReport::setParam(const std::string& key, Json value) {
  params_[key] = std::move(value);
}

void RunReport::addPhase(const std::string& name, double wallMs,
                         double cpuMs) {
  Json p = Json::object();
  p["name"] = Json(name);
  p["wall_ms"] = Json(wallMs);
  p["cpu_ms"] = Json(cpuMs);
  phases_.push_back(std::move(p));
}

void RunReport::setLeakage(const std::string& key, double value) {
  leakage_[key] = Json(value);
}

void RunReport::setDigest(double digest) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", digest);
  digest_ = buf;
}

void RunReport::setMetrics(const MetricsSnapshot& snapshot) {
  metrics_ = snapshot.toJson();
}

void RunReport::setStatistic(const std::string& key, Json value) {
  statistics_[key] = std::move(value);
}

void RunReport::setStatistics(Json block) {
  if (!block.isObject()) {
    throw std::invalid_argument(
        "RunReport::setStatistics: block must be a JSON object");
  }
  statistics_ = std::move(block);
}

void RunReport::setResilience(Json block) {
  if (!block.isObject()) {
    throw std::invalid_argument(
        "RunReport::setResilience: block must be a JSON object");
  }
  resilience_ = std::move(block);
}

void RunReport::setProfile(Json block) {
  if (!block.isObject()) {
    throw std::invalid_argument(
        "RunReport::setProfile: block must be a JSON object");
  }
  profile_ = std::move(block);
}

const char* RunReport::gitDescribe() { return LPA_GIT_DESCRIBE; }

Json RunReport::toJson() const {
  Json j = Json::object();
  j["schema"] = schemaId();
  j["name"] = Json(name_);
  j["git"] = gitDescribe();
  j["timestamp_unix"] = Json(static_cast<double>(std::time(nullptr)));
  j["seed"] = Json(seed_);
  j["params"] = params_;
  j["phases"] = phases_;
  Json metrics = metrics_;
  if (!metrics.isObject()) metrics = MetricsSnapshot{}.toJson();
  j["metrics"] = std::move(metrics);
  j["leakage"] = leakage_;
  j["statistics"] = statistics_;
  j["resilience"] = resilience_;
  j["profile"] = profile_;
  j["determinism_digest"] = Json(digest_);
  return j;
}

namespace {

/// The report's document, refused on its first schema violation so that no
/// invalid document reaches a file or a ledger.
Json validDocument(const RunReport& report) {
  Json j = report.toJson();
  if (const std::string violation = RunReport::validate(j);
      !violation.empty()) {
    throw std::runtime_error("run report \"" + report.name() +
                             "\" is not valid: " + violation);
  }
  return j;
}

}  // namespace

void RunReport::writeTo(const std::string& path) const {
  atomicWriteFile(path, validDocument(*this).dump(1) + "\n");
}

void RunReport::appendTo(const std::string& path) const {
  durableAppend(path, validDocument(*this).dump(-1) + "\n");
}

std::string RunReport::validate(const Json& j) {
  if (!j.isObject()) return "document is not an object";
  const auto str = [&](const char* key) -> std::string {
    const Json* v = j.find(key);
    if (!v) return std::string("missing key: ") + key;
    if (!v->isString()) return std::string(key) + " is not a string";
    return "";
  };
  if (auto e = str("schema"); !e.empty()) return e;
  if (j.find("schema")->asString() != schemaId()) {
    return "schema is not " + std::string(schemaId());
  }
  if (auto e = str("name"); !e.empty()) return e;
  if (j.find("name")->asString().empty()) return "name is empty";
  if (auto e = str("git"); !e.empty()) return e;
  if (auto e = str("determinism_digest"); !e.empty()) return e;
  for (const char* key : {"timestamp_unix", "seed"}) {
    const Json* v = j.find(key);
    if (!v) return std::string("missing key: ") + key;
    if (!v->isNumber()) return std::string(key) + " is not a number";
  }
  for (const char* key : {"params", "leakage", "metrics"}) {
    const Json* v = j.find(key);
    if (!v) return std::string("missing key: ") + key;
    if (!v->isObject()) return std::string(key) + " is not an object";
  }
  for (const char* key : {"counters", "gauges", "histograms"}) {
    const Json* v = j.find("metrics")->find(key);
    if (!v) return std::string("missing key: metrics.") + key;
    if (!v->isObject()) return std::string("metrics.") + key +
                               " is not an object";
  }
  for (const auto& [k, v] : j.find("metrics")->find("counters")->items()) {
    if (!v.isNumber()) return "metrics.counters." + k + " is not a number";
  }
  for (const auto& [k, v] : j.find("leakage")->items()) {
    if (!v.isNumber()) return "leakage." + k + " is not a number";
  }
  const Json* phases = j.find("phases");
  if (!phases) return "missing key: phases";
  if (!phases->isArray()) return "phases is not an array";
  for (std::size_t i = 0; i < phases->size(); ++i) {
    const Json& p = phases->at(i);
    if (!p.isObject()) return "phases[" + std::to_string(i) +
                               "] is not an object";
    const Json* name = p.find("name");
    if (!name || !name->isString() || name->asString().empty()) {
      return "phases[" + std::to_string(i) + "].name missing or empty";
    }
    for (const char* key : {"wall_ms", "cpu_ms"}) {
      const Json* v = p.find(key);
      if (!v || !v->isNumber() || v->asNumber() < 0.0) {
        return "phases[" + std::to_string(i) + "]." + key +
               " missing or negative";
      }
    }
  }

  // The statistics block's typed keys are validated when present (the
  // block is otherwise open for run-specific detail like the dashboard's
  // per-style matrix).
  const Json* stats = j.find("statistics");
  if (!stats) return "missing key: statistics";
  if (!stats->isObject()) return "statistics is not an object";
  for (const char* key : {"traces_total", "min_class_count", "batches",
                          "total_ci_halfwidth", "total_ci_rel",
                          "ci_confidence"}) {
    const Json* v = stats->find(key);
    if (!v) continue;
    if (!v->isNumber() || v->asNumber() < 0.0) {
      return std::string("statistics.") + key +
             " is not a non-negative number";
    }
  }
  if (const Json* v = stats->find("stop_reason");
      v && !v->isString()) {
    return "statistics.stop_reason is not a string";
  }
  if (const Json* v = stats->find("adaptive"); v && !v->isBool()) {
    return "statistics.adaptive is not a bool";
  }

  // The resilience block is empty for a plain run; typed keys are
  // validated when present so a malformed durable-run summary is rejected
  // rather than silently mis-read by the dashboard or gate.
  const Json* res = j.find("resilience");
  if (!res) return "missing key: resilience";
  if (!res->isObject()) return "resilience is not an object";
  for (const char* key : {"truncated", "resumed", "quarantined"}) {
    if (const Json* v = res->find(key); v && !v->isBool()) {
      return std::string("resilience.") + key + " is not a bool";
    }
  }
  for (const char* key : {"groups_total", "groups_completed",
                          "group_traces", "retries", "spot_checks"}) {
    if (const Json* v = res->find(key);
        v && (!v->isNumber() || v->asNumber() < 0.0)) {
      return std::string("resilience.") + key +
             " is not a non-negative number";
    }
  }
  if (const Json* v = res->find("stop_reason"); v && !v->isString()) {
    return "resilience.stop_reason is not a string";
  }
  if (const Json* v = res->find("checkpoint_lineage")) {
    if (!v->isArray()) return "resilience.checkpoint_lineage is not an array";
    for (std::size_t i = 0; i < v->size(); ++i) {
      if (!v->at(i).isString()) {
        return "resilience.checkpoint_lineage[" + std::to_string(i) +
               "] is not a string";
      }
    }
  }
  if (const Json* v = res->find("quarantine_events")) {
    if (!v->isArray()) return "resilience.quarantine_events is not an array";
    for (std::size_t i = 0; i < v->size(); ++i) {
      const Json& ev = v->at(i);
      const std::string at =
          "resilience.quarantine_events[" + std::to_string(i) + "]";
      if (!ev.isObject()) return at + " is not an object";
      const Json* group = ev.find("group");
      if (!group || !group->isNumber() || group->asNumber() < 0.0) {
        return at + ".group is not a non-negative number";
      }
      const Json* reason = ev.find("reason");
      if (!reason || !reason->isString() || reason->asString().empty()) {
        return at + ".reason missing or empty";
      }
    }
  }

  // The profile block is empty for an unprofiled run; typed keys are
  // validated when present so a malformed cost-attribution profile fails
  // loudly instead of rendering as an empty HTML report.
  const Json* prof = j.find("profile");
  if (!prof) return "missing key: profile";
  if (!prof->isObject()) return "profile is not an object";
  if (const Json* v = prof->find("schema"); v && !v->isString()) {
    return "profile.schema is not a string";
  }
  for (const char* key : {"runs", "profiled_runs"}) {
    if (const Json* v = prof->find(key);
        v && (!v->isNumber() || v->asNumber() < 0.0)) {
      return std::string("profile.") + key +
             " is not a non-negative number";
    }
  }
  if (const Json* nets = prof->find("nets")) {
    if (!nets->isObject()) return "profile.nets is not an object";
    if (const Json* rows = nets->find("rows")) {
      if (!rows->isArray()) return "profile.nets.rows is not an array";
      for (std::size_t i = 0; i < rows->size(); ++i) {
        if (!rows->at(i).isObject()) {
          return "profile.nets.rows[" + std::to_string(i) +
                 "] is not an object";
        }
      }
    }
  }
  if (const Json* occ = prof->find("lane_occupancy")) {
    if (!occ->isObject()) return "profile.lane_occupancy is not an object";
    for (const char* key : {"waves", "mean_popped", "mean_committed"}) {
      if (const Json* v = occ->find(key);
          v && (!v->isNumber() || v->asNumber() < 0.0)) {
        return std::string("profile.lane_occupancy.") + key +
               " is not a non-negative number";
      }
    }
  }
  if (const Json* hw = prof->find("hw_counters"); hw && !hw->isArray()) {
    return "profile.hw_counters is not an array";
  }
  return "";
}

namespace {

double processCpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

}  // namespace

PhaseTimer::PhaseTimer(RunReport& report, std::string name)
    : report_(&report),
      name_(std::move(name)),
      wall0_(std::chrono::steady_clock::now()),
      cpu0_(processCpuSeconds()),
      span_(name_) {}

PhaseTimer::~PhaseTimer() {
  const double wallMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall0_)
          .count();
  const double cpuMs = (processCpuSeconds() - cpu0_) * 1e3;
  report_->addPhase(name_, wallMs, cpuMs);
}

}  // namespace lpa::obs
