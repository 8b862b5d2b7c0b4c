#pragma once
// Bridges streaming statistics into run reports (obs/run_report.h).
//
// `fillStatistics` renders a LeakageEstimate into the run report's
// `statistics` block so every bench/example that computes an interval
// estimate publishes it the same way, and the dashboard / leakage gate read
// one shape. Unresolved (+inf) half-widths are omitted rather than
// serialized (JSON has no Inf), so "no CI yet" and "CI = 0" stay
// distinguishable in the artifact.

#include <cstdint>

#include "obs/json.h"
#include "obs/run_report.h"
#include "stats/streaming_leakage.h"

namespace lpa::stats {

/// The `statistics` block for one estimate: trace counts, aggregates with
/// CI half-widths, and the stop reason ("fixed" for non-adaptive runs,
/// "ci-target"/"max-traces" from adaptiveStopName for adaptive ones; pass
/// batches = 0 for non-adaptive runs).
obs::Json statisticsJson(const LeakageEstimate& e, const char* stopReason,
                         std::uint32_t batches);

/// statisticsJson + RunReport::setStatistics in one call.
void fillStatistics(obs::RunReport& report, const LeakageEstimate& e,
                    const char* stopReason = "fixed",
                    std::uint32_t batches = 0);

}  // namespace lpa::stats
