#pragma once
// Correlation Power Analysis (Brier-Clavier-Olivier) against the S-box
// implementations: Pearson correlation between measured traces and a
// Hamming-weight hypothesis on the S-box output, per key guess.

#include <array>
#include <cstdint>
#include <vector>

#include "trace/trace_set.h"

namespace lpa {

/// Leakage model for the hypothesis.
enum class CpaModel {
  HammingWeight,    ///< HW(SBOX[p ^ k])
  HammingDistance,  ///< HW(SBOX[p ^ k] ^ SBOX[0]) -- the Fig. 5 protocol
                    ///< transitions from the settled SBOX(0) state, so the
                    ///< switched output bits follow the Hamming distance.
};

struct CpaResult {
  /// max signed rho over all samples, per key guess (power is positively
  /// correlated with switched bits, so positive peaks identify the key).
  std::array<double, 16> peakCorrelation{};
  /// Key guesses sorted by descending peak correlation.
  std::array<std::uint8_t, 16> ranking{};
  std::uint8_t bestGuess = 0;

  /// Rank (0 = first) of `key` in the ranking.
  int rankOf(std::uint8_t key) const;
};

/// Runs CPA on traces whose labels are *plaintext* nibbles (see
/// acquireKeyed(sbox, sim, power, cfg, key, numTraces)).
CpaResult runCpa(const TraceSet& traces,
                 CpaModel model = CpaModel::HammingDistance);

/// Success-rate curve: whether the correct key ranks first when only the
/// first `sizes[i]` traces are used.
std::vector<double> cpaSuccessRate(const TraceSet& traces, std::uint8_t key,
                                   const std::vector<std::size_t>& sizes,
                                   CpaModel model = CpaModel::HammingDistance);

}  // namespace lpa
