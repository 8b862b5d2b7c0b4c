// Fig. 6: leakage power Sum_{u != 0} a_u^2(T) for the first 20 sampled
// points, all seven implementations -- the "points of interest" plot.

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_fig6_leakage_time",
                        bench::parseBenchArgs(argc, argv));
  bench::header("Leakage power per sampling point (first 20 samples)",
                "Fig. 6");

  constexpr std::uint32_t kShown = 20;
  std::vector<std::string> names;
  std::vector<std::vector<double>> waves;
  std::vector<double> totals;
  ExperimentConfig cfg;
  cfg.acquisition.progress = scope.progressSink();
  scope.report().setSeed(cfg.acquisition.seed);
  for (SboxStyle s : allSboxStyles()) {
    obs::PhaseTimer phase(scope.report(), bench::styleName(s));
    SboxExperiment exp(s, cfg);
    exp.attachProfiler(scope.profiler());  // nullptr without --profile
    const SpectralAnalysis sa(exp.acquireAt(0.0), EstimatorMode::Debiased);
    names.push_back(bench::styleName(s));
    waves.push_back(sa.leakagePowerPerSample());
    totals.push_back(sa.totalLeakagePower());
    scope.report().setLeakage(names.back() + ".fresh_total", totals.back());
  }

  std::printf("sample");
  for (const auto& n : names) std::printf(",%s", n.c_str());
  std::printf("\n");
  for (std::uint32_t t = 0; t < kShown; ++t) {
    std::printf("%6u", t);
    for (const auto& w : waves) std::printf(",%.4f", w[t]);
    std::printf("\n");
  }

  std::printf("\nwindow totals (first %u samples):\n", kShown);
  for (std::size_t i = 0; i < names.size(); ++i) {
    double sum = 0.0;
    for (std::uint32_t t = 0; t < kShown; ++t) sum += waves[i][t];
    std::printf("  %-16s %12.2f   (full-trace total %12.2f)\n",
                names[i].c_str(), sum, totals[i]);
  }
  std::printf(
      "\nShape check (paper): leakage is most prominent in the unprotected\n"
      "circuits; TI leaks more than the other masked styles early on\n"
      "because of its sheer netlist size.\n");
  return 0;
}
