#include "stats/convergence.h"

#include <limits>
#include <stdexcept>

namespace lpa::stats {

ConvergenceMonitor::ConvergenceMonitor(Options opt) : opt_(opt) {
  if (!(opt_.targetCiRel > 0.0)) {
    throw std::invalid_argument(
        "ConvergenceMonitor: targetCiRel must be > 0");
  }
}

void ConvergenceMonitor::observe(const LeakageEstimate& e) {
  ConvergencePoint p;
  p.traces = e.traces;
  p.total = e.total;
  p.ciHalfWidth = e.totalCi.halfWidth;
  p.ciRel = e.totalCi.relHalfWidth;
  history_.push_back(p);

  // Resolved once: every registry lookup takes the registry's mutex.
  struct Gauges {
    obs::Gauge ciRel, ciHalfWidth, total;
  };
  static const Gauges gauges{
      obs::MetricsRegistry::global().gauge("stats.ci_rel"),
      obs::MetricsRegistry::global().gauge("stats.ci_half_width"),
      obs::MetricsRegistry::global().gauge("stats.total_leakage")};
  gauges.ciRel.set(p.ciRel);
  gauges.ciHalfWidth.set(p.ciHalfWidth);
  gauges.total.set(p.total);
}

bool ConvergenceMonitor::converged() const {
  if (history_.empty()) return false;
  const ConvergencePoint& p = history_.back();
  if (p.traces < opt_.minTraces) return false;
  return p.ciRel <= opt_.targetCiRel;
}

double ConvergenceMonitor::currentCiRel() const {
  return history_.empty() ? std::numeric_limits<double>::infinity()
                          : history_.back().ciRel;
}

}  // namespace lpa::stats
