// Fig. 3: convergence of the ISW leakage coefficients with the number of
// traces -- after ~1024 power measurements the estimates are stable.

#include <cmath>

#include "bench_util.h"
#include "core/leakage.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_fig3_convergence",
                        bench::parseBenchArgs(argc, argv));
  bench::header("ISW leakage coefficients vs. number of traces", "Fig. 3");

  ExperimentConfig cfg;
  cfg.acquisition.progress = scope.progressSink();
  scope.report().setSeed(cfg.acquisition.seed);
  SboxExperiment exp(SboxStyle::Isw, cfg);
  exp.attachProfiler(scope.profiler());  // nullptr without --profile
  TraceSet traces(1);
  {
    obs::PhaseTimer phase(scope.report(), "acquire");
    traces = exp.acquireAt(0.0);
  }
  bench::DigestAccumulator acc;
  acc.addTraceSet(traces);
  scope.report().setDigest(acc.hex());

  // Track each nonzero coefficient at its own peak sample (found on the
  // full dataset), like reading Fig. 3's per-u curves.
  obs::PhaseTimer analyzePhase(scope.report(), "analyze");
  const SpectralAnalysis full(traces, EstimatorMode::Raw);
  std::array<std::uint32_t, 16> peakSample{};
  for (std::uint32_t u = 1; u < 16; ++u) {
    double best = -1.0;
    for (std::uint32_t t = 0; t < full.numSamples(); ++t) {
      const double mag = std::fabs(full.coefficient(u, t));
      if (mag > best) {
        best = mag;
        peakSample[u] = t;
      }
    }
  }

  std::printf("traces");
  for (std::uint32_t u = 1; u < 16; ++u) std::printf(",a_%X", u);
  std::printf("\n");
  for (std::size_t n : {64, 128, 192, 256, 384, 512, 640, 768, 896, 1024}) {
    const SpectralAnalysis sa(traces, EstimatorMode::Raw, n);
    std::printf("%6zu", n);
    for (std::uint32_t u = 1; u < 16; ++u) {
      std::printf(",%.5f", sa.coefficient(u, peakSample[u]));
    }
    std::printf("\n");
  }

  // Shape check: estimates at 512 traces are already close to the
  // 1024-trace values (fast convergence, as the paper observes).
  const SpectralAnalysis half(traces, EstimatorMode::Raw, 512);
  double worst = 0.0;
  for (std::uint32_t u = 1; u < 16; ++u) {
    worst = std::max(worst, std::fabs(half.coefficient(u, peakSample[u]) -
                                      full.coefficient(u, peakSample[u])));
  }
  std::printf("\nmax |a_u(512) - a_u(1024)| over u: %.5f\n", worst);
  scope.report().setParam("max_coeff_delta_512_1024", worst);
  scope.report().setLeakage("isw_fresh_total", full.totalLeakagePower());
  return 0;
}
