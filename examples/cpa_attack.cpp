// CPA attack demo: recover a PRESENT round-key nibble from simulated power
// traces of the unprotected S-box, then watch the same attack crumble
// against the ISW-masked implementation. Finishes with a fixed-vs-random
// TVLA verdict for both circuits.

#include <cstdio>

#include "analysis/cpa.h"
#include "analysis/tvla.h"
#include "core/experiment.h"
#include "crypto/present.h"

namespace {

using namespace lpa;

void attack(SboxStyle style, std::uint8_t key, std::uint32_t numTraces) {
  const auto sbox = makeSbox(style);
  ExperimentConfig cfg;
  const DelayModel delays(sbox->netlist(), cfg.delay);
  const PowerModel power(sbox->netlist(), cfg.power);
  EventSim sim(sbox->netlist(), delays, cfg.sim);

  AcquisitionConfig acq;
  acq.seed = 1;
  const TraceSet traces = acquireKeyed(*sbox, sim, power, acq, key, numTraces);
  const CpaResult res = runCpa(traces);

  std::printf("--- CPA vs %s (%u traces, secret key nibble 0x%X) ---\n",
              std::string(sbox->name()).c_str(), numTraces, key);
  std::printf("guess ranking: ");
  for (int r = 0; r < 16; ++r) {
    std::printf("%X%s", res.ranking[static_cast<std::size_t>(r)],
                r == 15 ? "" : " ");
  }
  std::printf("\nbest guess 0x%X (rho = %.3f); correct key ranks #%d "
              "(rho = %.3f) -> %s\n",
              res.bestGuess, res.peakCorrelation[res.bestGuess],
              res.rankOf(key) + 1, res.peakCorrelation[key],
              res.bestGuess == key ? "KEY RECOVERED" : "attack failed");

  const auto sizes = std::vector<std::size_t>{32, 64, 128, 256, 512};
  const auto sr = cpaSuccessRate(traces, key, sizes);
  std::printf("success vs #traces:");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::printf(" %zu:%s", sizes[i], sr[i] > 0.5 ? "yes" : "no");
  }
  std::printf("\n\n");
}

void tvla(SboxStyle style) {
  SboxExperiment exp(style);
  const TraceSet traces = exp.acquireAt(0.0);
  const auto t = fixedVsRandomT(traces, /*fixedClass=*/0);
  double worst = 0.0;
  for (double x : t) worst = std::max(worst, std::abs(x));
  std::printf("TVLA (fixed class 0 vs rest) on %-16s max|t| = %6.1f -> %s\n",
              std::string(sboxStyleName(style)).c_str(), worst,
              worst > 4.5 ? "FAILS (leaks)" : "passes");
}

}  // namespace

int main() {
  const std::uint8_t key = 0xB;
  attack(SboxStyle::Lut, key, 512);
  attack(SboxStyle::Isw, key, 512);
  tvla(SboxStyle::Lut);
  tvla(SboxStyle::Isw);
  std::printf(
      "\nNote: ISW passes first-order fixed-vs-random TVLA at this trace\n"
      "count -- yet its WHT decomposition still shows nonzero multi-bit\n"
      "leakage (see bench_fig7): the spectral metric detects residual\n"
      "glitch interactions that a first-order t-test is blind to, which is\n"
      "exactly the paper's motivation for the methodology.\n");
  return 0;
}
