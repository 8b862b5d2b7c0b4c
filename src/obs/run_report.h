#pragma once
// Machine-readable run reports: every bench and example can emit one JSON
// document per run (config, seed, git describe, wall/CPU time per phase,
// metrics snapshot, leakage summary, determinism digest), so campaigns at
// scale leave auditable artifacts and the perf trajectory (BENCH_*.json)
// populates from real runs instead of hand-copied numbers.
//
// Schema "lpa-run-report/4" (validated by RunReport::validate, which
// writeTo() and appendTo() run before they write):
//
//   {
//     "schema": "lpa-run-report/4",
//     "name": "<run name>",                  // required, non-empty
//     "git": "<git describe at build time>", // required
//     "timestamp_unix": <seconds>,           // required
//     "seed": <number>,                      // required (0 if unseeded)
//     "params": { "<key>": number|string|bool, ... },
//     "phases": [ {"name": str, "wall_ms": num, "cpu_ms": num}, ... ],
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {} },
//     "leakage": { "<key>": number, ... },
//     "statistics": { ... },                 // statistical summary
//     "resilience": { ... },                 // durable-run summary
//     "profile": { ... },                    // cost-attribution profile
//     "determinism_digest": "<digest as %.17g string or free-form>"
//   }
//
// /4 is the only version validate() and the tools/ readers accept: every
// producer is in this repository, and each has written /4 since the
// profile block was added.
//
// The registry holds counters and gauges only (obs/metrics.h), so
// `metrics.histograms` is always an empty object. validate() still
// requires it, so /4 documents keep their layout until /5 drops the key.
//
// The `statistics` block is an open object for statistical metadata of
// the run (stats/report.h fills it from a LeakageEstimate): trace counts
// (`traces_total`, `min_class_count`), CI half-widths
// (`total_ci_halfwidth`, `total_ci_rel`, ...), and the adaptive-stop reason
// (`stop_reason`: "fixed" | "ci-target" | "max-traces"). Typed keys are
// validated when present.
//
// The `resilience` block records a durable run's fate (jobs/resilient.h
// fills it from a ResilienceInfo): `truncated` / `resumed` / `quarantined`
// flags, `groups_total` / `groups_completed` / `retries` / `spot_checks`
// counts, `stop_reason` ("completed" | "ci-target" | "max-traces" |
// "deadline" | "drain"), `quarantine_events` (array of {group, reason})
// and `checkpoint_lineage` (array of "g<k>/<n>:<digest>" strings). Typed
// keys are validated when present; a plain run leaves the block empty.
//
// The `profile` block is the cost-attribution profile of the run
// (obs/profiler.h's Profiler::toJson fills it): per-net top-K tallies,
// batch lane-occupancy histograms, the calendar-queue depth timeline,
// per-phase hardware counters (perf_event_open or rusage fallback) and
// arena byte samples. An unprofiled run leaves the block empty. Typed
// keys are validated when present.
//
// ## Run ledger
//
// `appendTo()` appends the report to a JSONL ledger — one compact
// lpa-run-report/4 document per line, one line per run — which
// tools/lpa_dashboard.py renders and tools/leakage_gate.py gates against
// the golden ordering. Appends are fsync'd before close
// (obs/fsio.h), so a crash can tear at most the trailing line, which the
// tools skip with a warning.

#include <cstdint>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace lpa::obs {

class RunReport {
 public:
  explicit RunReport(std::string name);

  const std::string& name() const { return name_; }

  void setParam(const std::string& key, Json value);
  void setParam(const std::string& key, const std::string& value) {
    setParam(key, Json(value));
  }
  void setParam(const std::string& key, double value) {
    setParam(key, Json(value));
  }
  void setSeed(std::uint64_t seed) { seed_ = seed; }
  void addPhase(const std::string& name, double wallMs, double cpuMs);
  void setLeakage(const std::string& key, double value);
  /// Determinism digest (order-sensitive trace/report hash), rendered with
  /// full double precision so bit-identity across runs is checkable by
  /// string comparison.
  void setDigest(double digest);
  void setDigest(std::string digest) { digest_ = std::move(digest); }
  void setMetrics(const MetricsSnapshot& snapshot);
  /// Sets one key of the `statistics` block.
  void setStatistic(const std::string& key, Json value);
  /// Replaces the whole `statistics` block (must be an object).
  void setStatistics(Json block);
  /// Replaces the whole `resilience` block (must be an object;
  /// jobs/resilient.h's fillResilience builds it from a ResilienceInfo).
  void setResilience(Json block);
  /// Replaces the whole `profile` block (must be an object;
  /// obs/profiler.h's Profiler::toJson builds it).
  void setProfile(Json block);

  Json toJson() const;
  /// Atomically replaces `path` with toJson() (write temp + fsync + rename,
  /// obs/fsio.h) so a crash mid-write can never leave a torn report that
  /// poisons its readers (tools/, CI's obs-smoke checks). Throws
  /// std::runtime_error, and writes nothing, when toJson() fails
  /// validate(); throws std::runtime_error on IO failure.
  void writeTo(const std::string& path) const;
  /// Appends this report as one compact line to the JSONL ledger at
  /// `path` (created if absent), fsync'd before close so the append is
  /// durable on return. Throws std::runtime_error, and appends nothing,
  /// when toJson() fails validate(); throws on IO failure.
  void appendTo(const std::string& path) const;

  static const char* schemaId() { return "lpa-run-report/4"; }
  /// "" when `j` conforms to the /4 schema, otherwise the first violation.
  static std::string validate(const Json& j);
  /// The git describe string baked in at configure time ("unknown" outside
  /// a git checkout).
  static const char* gitDescribe();

 private:
  std::string name_;
  std::uint64_t seed_ = 0;
  Json params_ = Json::object();
  Json phases_ = Json::array();
  Json leakage_ = Json::object();
  Json metrics_ = Json::object();
  Json statistics_ = Json::object();
  Json resilience_ = Json::object();
  Json profile_ = Json::object();
  std::string digest_;
};

/// RAII phase timer: measures wall and process-CPU time of a scope, adds a
/// phase entry to the report on destruction, and opens a Span of the same
/// name so phases appear in the Chrome trace too.
class PhaseTimer {
 public:
  PhaseTimer(RunReport& report, std::string name);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  RunReport* report_;
  std::string name_;
  std::chrono::steady_clock::time_point wall0_;
  double cpu0_;
  Span span_;
};

}  // namespace lpa::obs
