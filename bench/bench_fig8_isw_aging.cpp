// Fig. 8: leakage power per sampling point of the ISW implementation over
// 4 years of usage -- the leakage decreases with age, fastest at first.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_fig8_isw_aging",
                        bench::parseBenchArgs(argc, argv));
  bench::header("ISW leakage power over 4 years of usage", "Fig. 8");

  ExperimentConfig cfg;
  cfg.acquisition.progress = scope.progressSink();
  scope.report().setSeed(cfg.acquisition.seed);
  SboxExperiment exp(SboxStyle::Isw, cfg);
  exp.attachProfiler(scope.profiler());  // nullptr without --profile
  std::vector<std::vector<double>> waves;
  std::vector<double> totals;
  for (double months : bench::figureAges()) {
    obs::PhaseTimer phase(scope.report(),
                          "month " + std::to_string(static_cast<int>(months)));
    const SpectralAnalysis sa(exp.acquireAt(months), EstimatorMode::Debiased);
    waves.push_back(sa.leakagePowerPerSample());
    totals.push_back(sa.totalLeakagePower());
    scope.report().setLeakage(
        "isw.month" + std::to_string(static_cast<int>(months)),
        totals.back());
  }

  std::printf("sample");
  for (double months : bench::figureAges()) {
    std::printf(",month%.0f", months);
  }
  std::printf("\n");
  for (std::uint32_t t = 0; t < 40; ++t) {
    std::printf("%6u", t);
    for (const auto& w : waves) std::printf(",%.4f", w[t]);
    std::printf("\n");
  }

  std::printf("\ntotals: ");
  for (std::size_t i = 0; i < totals.size(); ++i) {
    std::printf("%s%.2f", i ? ", " : "", totals[i]);
  }
  const bool monotone = totals[0] > totals[1] && totals[1] > totals[2] &&
                        totals[2] > totals[3] && totals[3] > totals[4];
  const double d01 = totals[0] - totals[1];
  const double d12 = totals[1] - totals[2];
  std::printf(
      "\nShape check (paper): leakage decreases over time (%s) and the\n"
      "first-year degradation exceeds the second-year one (%s).\n",
      monotone ? "HOLDS" : "VIOLATED", d01 > d12 ? "HOLDS" : "VIOLATED");
  return 0;
}
