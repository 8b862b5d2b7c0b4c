// Fig. 4: waveform of the ISW leakage coefficients a_u(T) across the 100
// samples; multi-bit components (wH(u) >= 2, e.g. the bit1*bit2
// interaction u = 0110b) reveal glitch leakage.

#include <bit>
#include <cmath>

#include "bench_util.h"
#include "core/leakage.h"

int main(int argc, char** argv) {
  using namespace lpa;
  bench::RunScope scope("bench_fig4_coeffs",
                        bench::parseBenchArgs(argc, argv));
  bench::header("ISW leakage coefficients a_u(T) per sample", "Fig. 4");

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
  const SpectralAnalysis sa(traces, EstimatorMode::Raw);

  std::printf("sample");
  for (std::uint32_t u = 1; u < 16; ++u) std::printf(",a_%X", u);
  std::printf("\n");
  for (std::uint32_t t = 0; t < sa.numSamples(); ++t) {
    std::printf("%6u", t);
    for (std::uint32_t u = 1; u < 16; ++u) {
      std::printf(",%.5f", sa.coefficient(u, t));
    }
    std::printf("\n");
  }

  // Strongest single-bit and multi-bit components over the whole window.
  double best1 = 0.0, bestM = 0.0;
  std::uint32_t arg1 = 0, argM = 0;
  for (std::uint32_t u = 1; u < 16; ++u) {
    double peak = 0.0;
    for (std::uint32_t t = 0; t < sa.numSamples(); ++t) {
      peak = std::max(peak, std::fabs(sa.coefficient(u, t)));
    }
    if (std::popcount(u) == 1) {
      if (peak > best1) {
        best1 = peak;
        arg1 = u;
      }
    } else if (peak > bestM) {
      bestM = peak;
      argM = u;
    }
  }
  std::printf(
      "\nstrongest single-bit component: u=%X (peak |a_u| = %.5f)\n"
      "strongest multi-bit  component: u=%X (peak |a_u| = %.5f)\n"
      "The multi-bit component is the glitch signature the paper highlights\n"
      "(their example: the conjunction of bits 1 and 2, u = 6).\n",
      arg1, best1, argM, bestM);
  scope.report().setParam("strongest_single_bit_u", static_cast<double>(arg1));
  scope.report().setParam("strongest_multi_bit_u", static_cast<double>(argM));
  scope.report().setLeakage("isw_fresh_total", sa.totalLeakagePower());
  return 0;
}
