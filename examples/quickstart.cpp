// Quickstart: measure the leakage of one masked PRESENT S-box in ~20 lines.
//
// Builds the ISW implementation, runs the paper's Fig. 5 acquisition
// protocol (1024 balanced traces at 50 GS/s), decomposes the class means in
// the Walsh-Hadamard basis, and prints the headline leakage metrics.

#include <cstdio>

#include "core/experiment.h"

int main() {
  using namespace lpa;

  // One line: implementation + simulator + power/aging models, calibrated.
  SboxExperiment experiment(SboxStyle::Isw);

  std::printf("implementation : %s\n",
              std::string(experiment.sbox().name()).c_str());
  std::printf("nets (incl. PIs): %zu\n",
              experiment.sbox().netlist().numGates());
  std::printf("random bits    : %d\n", experiment.sbox().randomBits());

  // Acquire the paper's 1024-trace dataset and decompose it.
  const SpectralAnalysis analysis(experiment.acquireAt(/*months=*/0.0),
                                  EstimatorMode::Debiased);

  std::printf("total leakage power        : %.2f\n",
              analysis.totalLeakagePower());
  std::printf("  single-bit (wH(u) == 1)  : %.2f\n",
              analysis.totalSingleBitLeakage());
  std::printf("  multi-bit  (glitches)    : %.2f\n",
              analysis.totalMultiBitLeakage());

  // Where does it leak? Print the five leakiest sampling points.
  std::vector<double> wave = analysis.leakagePowerPerSample();
  std::printf("points of interest (sample : leakage):\n");
  for (int k = 0; k < 5; ++k) {
    std::size_t best = 0;
    double bestV = -1.0;
    for (std::size_t t = 0; t < wave.size(); ++t) {
      if (wave[t] > bestV) {
        bestV = wave[t];
        best = t;
      }
    }
    std::printf("  %3zu : %.3f\n", best, bestV);
    wave[best] = -1.0;
  }
  return 0;
}
