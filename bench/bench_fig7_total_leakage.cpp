// Fig. 7: total leakage power of every implementation, fresh and after 1-4
// years of aging, split into single-bit (wH(u) = 1, "solid sub-bars") and
// multi-bit (wH(u) >= 2, "unfilled sub-bars") leakage, plus the paper's
// single-bit-to-total ratio rows — now with 95% jackknife confidence
// intervals per cell and a per-age ordering-resolution verdict
// (src/stats + src/analysis/ordering.h).
//
// Usage: bench_fig7_total_leakage [tracesPerClass] [--json p] [--ledger p]
//
// The statistics block of the run report carries the full style x age
// matrix with half-widths; tools/lpa_dashboard.py renders it as the Fig. 7
// error-bar chart and tools/leakage_gate.py gates CI on it.

#include "analysis/ordering.h"
#include "bench_util.h"
#include "stats/report.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_fig7_total_leakage",
                        bench::parseBenchArgs(argc, argv));
  bench::header(
      "Total leakage power, fresh and aged, single-bit vs multi-bit",
      "Fig. 7");

  const std::uint32_t tracesPerClass = bench::positionalCount(
      scope.args(), 0, 64, "tracesPerClass");

  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = tracesPerClass;
  cfg.acquisition.progress = scope.progressSink();
  scope.report().setSeed(cfg.acquisition.seed);
  scope.report().setParam("traces_per_class",
                          static_cast<double>(tracesPerClass));

  std::printf("%-16s %6s %14s %12s %14s %14s %10s\n", "impl", "months",
              "total", "+-95% CI", "multi-bit", "single-bit", "1bit/total");
  std::vector<double> protRatio, unprotRatio;
  // Interval estimates per age for the ordering-resolution verdict, and the
  // style x age matrix for the dashboard/gate.
  std::vector<std::vector<StyleLeakage>> perAge(bench::figureAges().size());
  obs::Json matrix = obs::Json::array();
  for (SboxStyle s : allSboxStyles()) {
    obs::PhaseTimer phase(scope.report(), bench::styleName(s));
    SboxExperiment exp(s, cfg);
    exp.attachProfiler(scope.profiler());  // nullptr without --profile
    for (std::size_t ai = 0; ai < bench::figureAges().size(); ++ai) {
      const double months = bench::figureAges()[ai];
      const stats::LeakageEstimate est =
          exp.estimateAt(months, EstimatorMode::Debiased);
      const double ratio = est.singleBitRatio;
      if (est.totalCi.resolved()) {
        std::printf("%-16s %6.0f %14.2f %12.2f %14.2f %14.2f %9.2f%%\n",
                    bench::styleName(s).c_str(), months, est.total,
                    est.totalCi.halfWidth, est.multiBit, est.singleBit,
                    100.0 * ratio);
      } else {
        std::printf("%-16s %6.0f %14.2f %12s %14.2f %14.2f %9.2f%%\n",
                    bench::styleName(s).c_str(), months, est.total, "n/a",
                    est.multiBit, est.singleBit, 100.0 * ratio);
      }
      scope.report().setLeakage(
          bench::styleName(s) + ".month" + std::to_string(
              static_cast<int>(months)), est.total);
      perAge[ai].push_back({s, est.totalCi, est.traces});
      obs::Json cell = obs::Json::object();
      cell["style"] = obs::Json(bench::styleName(s));
      cell["months"] = obs::Json(months);
      cell["total"] = obs::Json(est.total);
      if (est.totalCi.resolved()) {
        cell["ci_halfwidth"] = obs::Json(est.totalCi.halfWidth);
      }
      cell["single_bit"] = obs::Json(est.singleBit);
      cell["multi_bit"] = obs::Json(est.multiBit);
      cell["traces"] = obs::Json(est.traces);
      matrix.push_back(std::move(cell));
      if (months > 0.0) {
        if (s == SboxStyle::Lut || s == SboxStyle::Opt) {
          unprotRatio.push_back(ratio);
        } else {
          protRatio.push_back(ratio);
        }
      }
    }
  }

  // Per-age ordering resolution: which adjacent pairs of the measured
  // ranking are statistically resolved at 95%?
  std::printf("\nordering resolution (95%%, adjacent pairs of the ranking):\n");
  for (std::size_t ai = 0; ai < bench::figureAges().size(); ++ai) {
    const auto pairs = resolveRanking(perAge[ai]);
    std::size_t resolved = 0;
    for (const OrderingResolution& p : pairs) {
      if (p.verdict.resolved) ++resolved;
    }
    std::printf("  month %-3.0f %zu/%zu resolved%s\n",
                bench::figureAges()[ai], resolved, pairs.size(),
                rankingFullyResolved(pairs) ? " (fully resolved)" : "");
  }

  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  std::printf(
      "\naveraged over years 1-4: single-bit share = %.2f%% (unprotected) vs"
      " %.2f%% (masked)\n",
      100.0 * mean(unprotRatio), 100.0 * mean(protRatio));
  std::printf(
      "(paper: ~14.0%% unprotected vs ~0.5%% masked; our gate-level power\n"
      "model compresses that gap but keeps the direction and, bar for bar,\n"
      "the paper's total-leakage ordering LUT > OPT > TI > RSM-ROM > RSM >\n"
      "GLUT > ISW at every age -- the ordering is asserted by the test\n"
      "Experiment.PaperFig7OrderingReproduced.)\n");

  scope.report().setStatistic("traces_per_class",
                              obs::Json(static_cast<double>(tracesPerClass)));
  scope.report().setStatistic("ci_confidence", obs::Json(0.95));
  scope.report().setStatistic("matrix", std::move(matrix));
  return 0;
}
