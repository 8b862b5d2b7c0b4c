#pragma once
// Prometheus text exposition (format 0.0.4) for MetricsRegistry snapshots,
// plus the metric-name lint the registry enforces at registration time in
// debug builds. This is the wire format behind the telemetry server's
// `GET /metrics` endpoint (obs/telemetry_server.h, DESIGN.md §15).
//
// ## Name mapping
//
// Registry names use dots as component separators ("sim.batch.runs",
// "jobs.spot_checks"). Prometheus names must match
// `[a-zA-Z_:][a-zA-Z0-9_:]*`, so rendering prefixes every instrument with
// "lpa_" and maps '.' and '-' to '_' ("sim.batch.runs" ->
// "lpa_sim_batch_runs"). lintMetricName() checks that a registry name
// survives this mapping unambiguously: only [a-zA-Z0-9_:.-], not empty,
// not starting with a digit or separator. MetricsRegistry::counter/gauge
// call it on first registration in debug builds (NDEBUG unset)
// and throw std::invalid_argument on a violation, so a bad name fails the
// tier-1 suite instead of surfacing as an unscrapable endpoint in
// production (tests/test_telemetry.cpp lints every name the engines, the
// profiler and the fault campaign register).
//
// ## Rendered families
//
//   * counter  -> `# TYPE lpa_x counter`  + one sample line
//   * gauge    -> `# TYPE lpa_x gauge`    + one sample line
//
// Output is deterministic: snapshots are name-sorted and doubles render
// with %.17g (integers without an exponent), so two identical snapshots
// produce byte-identical documents — which the golden-format test pins.

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace lpa::obs {

/// True when `name` is a valid Prometheus exposition metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
bool isValidExpositionName(std::string_view name);

/// Maps a registry name onto its exposition name: '.' and '-' become '_'.
/// Does NOT add the "lpa_" prefix (renderPrometheus does).
std::string sanitizeMetricName(std::string_view name);

/// "" when `name` is a lint-clean registry name (non-empty, only
/// [a-zA-Z0-9_:.-], and sanitizeMetricName(name) passes
/// isValidExpositionName); otherwise the first violation, human-readable.
std::string lintMetricName(std::string_view name);

/// Renders a full snapshot in Prometheus text exposition format. Every
/// family is prefixed with `prefix` (default "lpa_") after sanitization.
/// Instruments whose names fail the lint are skipped defensively in
/// release builds (debug builds cannot register them in the first place).
std::string renderPrometheus(const MetricsSnapshot& snap,
                             std::string_view prefix = "lpa_");

}  // namespace lpa::obs
