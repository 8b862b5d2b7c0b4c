// Confidence study: how sure are we of a leakage number, and when can we
// stop measuring?
//
// The paper's Fig. 7 bars are point estimates from a fixed 1024-trace
// protocol. This example puts intervals on them (src/stats): a streaming
// estimator folds traces in one pass, a delete-one-fold jackknife gives a
// 95% CI on the total WHT leakage, a Welch test says when two
// implementations' ordering is statistically resolved, and a
// convergence-gated acquisition stops as soon as the CI is tight enough —
// the same machinery `bench_adaptive_acquire` and the CI leakage gate use.

#include <cstdio>

#include "analysis/ordering.h"
#include "core/experiment.h"
#include "stats/adaptive.h"

int main() {
  using namespace lpa;

  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 256;

  // 1. Interval estimates: the debiased totals of SpectralAnalysis over
  //    acquireAt()'s traces, plus a jackknife 95% CI from the streaming
  //    estimator.
  std::printf("== 95%% confidence intervals, fresh devices ==\n");
  std::printf("%-16s %12s %14s %10s\n", "impl", "total", "+-95% CI", "rel");
  std::vector<StyleLeakage> measured;
  for (SboxStyle style : allSboxStyles()) {
    SboxExperiment exp(style, cfg);
    const stats::LeakageEstimate est = exp.estimateAt(0.0);
    std::printf("%-16s %12.2f %14.2f %9.1f%%\n",
                std::string(sboxStyleName(style)).c_str(), est.total,
                est.totalCi.halfWidth, 100.0 * est.totalCi.relHalfWidth);
    measured.push_back({style, est.totalCi, est.traces});
  }

  // 2. Which adjacent pairs of the leakage ranking are resolved — i.e. the
  //    intervals are far enough apart that the order cannot be noise?
  std::printf("\n== ordering resolution (Welch test on adjacent pairs) ==\n");
  for (const OrderingResolution& p : resolveRanking(measured)) {
    std::printf("%-16s > %-16s  z = %6.2f  %s\n",
                std::string(sboxStyleName(p.moreLeaky)).c_str(),
                std::string(sboxStyleName(p.lessLeaky)).c_str(),
                p.verdict.zScore,
                p.verdict.resolved ? "resolved" : "unresolved");
  }

  // 3. Convergence-gated acquisition: stop when the CI target is met
  //    instead of burning the whole trace budget. The acquired traces are
  //    a bit-identical prefix of what the fixed-count run would produce.
  std::printf("\n== adaptive acquisition, ISW, target ciRel <= 20%% ==\n");
  ExperimentConfig acfg = cfg;
  acfg.acquisition.tracesPerClass = 512;  // ceiling: 8192 traces
  acfg.acquisition.targetCiRel = 0.20;
  acfg.acquisition.batchSize = 256;
  SboxExperiment isw(SboxStyle::Isw, acfg);
  const stats::AdaptiveResult res = isw.adaptiveAcquireAt(0.0);
  std::printf("%8s %14s %14s %10s\n", "traces", "total", "+-95% CI", "rel");
  for (const stats::ConvergencePoint& p : res.history) {
    if (p.ciRel < 1e300) {
      std::printf("%8llu %14.2f %14.2f %9.1f%%\n",
                  static_cast<unsigned long long>(p.traces), p.total,
                  p.ciHalfWidth, 100.0 * p.ciRel);
    } else {
      std::printf("%8llu %14.2f %14s %10s\n",
                  static_cast<unsigned long long>(p.traces), p.total, "n/a",
                  "n/a");
    }
  }
  std::printf("stopped after %zu traces (%s, %u batches) of a %u-trace "
              "budget\n",
              res.traces.size(), stats::adaptiveStopName(res.stop),
              res.batches, 16 * acfg.acquisition.tracesPerClass);
  return 0;
}
