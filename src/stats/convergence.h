#pragma once
// Convergence tracking for streaming leakage estimates (DESIGN.md §10).
//
// A `ConvergenceMonitor` observes a sequence of `LeakageEstimate` snapshots
// (one per acquisition batch), keeps the history of CI half-widths, and
// decides when the relative half-width of the total-leakage interval has
// met a target — the stop condition of convergence-gated acquisition
// (stats/adaptive.h, the adaptive mode of jobs/resilient.h). Purely an
// observer: it never feeds anything back into trace generation, so the
// traces a converged run acquired are a prefix of the traces the un-gated
// run would have acquired.

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "stats/streaming_leakage.h"

namespace lpa::stats {

struct ConvergencePoint {
  std::uint64_t traces = 0;
  double total = 0.0;         ///< total-leakage point estimate
  double ciHalfWidth = 0.0;   ///< +inf while unresolved
  double ciRel = 0.0;         ///< halfWidth / total; +inf while unresolved
};

class ConvergenceMonitor {
 public:
  struct Options {
    /// Target relative half-width of the total-leakage CI.
    double targetCiRel = 0.10;
    /// Never report convergence before this many traces (0 = no floor).
    std::uint64_t minTraces = 0;
  };

  explicit ConvergenceMonitor(Options opt);
  ConvergenceMonitor() : ConvergenceMonitor(Options()) {}

  /// Records one estimate snapshot. Publishes the `stats.ci_rel`,
  /// `stats.ci_half_width` and `stats.total_leakage` gauges to the global
  /// registry (pure sinks — zero perturbation).
  void observe(const LeakageEstimate& e);

  /// True once the most recent observation met the target (and the
  /// minTraces floor, if any).
  bool converged() const;

  /// Relative CI half-width of the last observation (+inf before any).
  double currentCiRel() const;

  const std::vector<ConvergencePoint>& history() const { return history_; }
  const Options& options() const { return opt_; }

 private:
  Options opt_;
  std::vector<ConvergencePoint> history_;
};

}  // namespace lpa::stats
