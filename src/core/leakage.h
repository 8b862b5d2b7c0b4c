#pragma once
// The paper's WHT-based leakage metrics (Section III & V.B).
//
// From the 16 class-mean traces M_t(T), the spectral coefficients per sample
// time are a_u(T) (u in F_2^4). The metrics:
//
//   LeakagePower(T)     = sum_{u != 0} a_u(T)^2
//   TotalLeakagePower   = sum_T LeakagePower(T)
//   single-bit leakage  = restriction of the sums to wH(u) == 1
//   multi-bit  leakage  = restriction to wH(u) >= 2 (glitch interactions)
//
// Estimator bias: with a finite number of traces per class, the class means
// carry sampling noise from the random masks, and E[a_u_hat^2] =
// a_u^2 + noiseFloor where noiseFloor(T) = (1/16) sum_c Var_c(T)/N_c for
// the orthonormal WHT. `EstimatorMode::Debiased` subtracts that floor
// (clamped at zero), separating systematic leakage from mask-sampling
// noise; `Raw` reproduces the paper's plain estimator. SpectralAnalysis
// takes its mode explicitly; every default mode elsewhere
// (SboxExperiment::estimateAt, StreamingLeakage::Options,
// FaultCampaignConfig) is Debiased.

#include <array>
#include <cstdint>
#include <vector>

#include "stats/accumulator.h"
#include "trace/trace_set.h"

namespace lpa {

enum class EstimatorMode {
  Raw,       ///< plain squared coefficients of the class means
  Debiased,  ///< subtract the mask-sampling noise floor from each a_u^2
};

/// Full spectral decomposition of a trace set.
class SpectralAnalysis {
 public:
  /// Decomposes the class means of `traces` (16 classes). If `firstN` > 0,
  /// only the first `firstN` traces contribute (Fig. 3 convergence).
  explicit SpectralAnalysis(const TraceSet& traces, EstimatorMode mode,
                            std::size_t firstN = 0);

  /// Decomposes class-conditional moments accumulated in streaming fashion
  /// (16 classes). Bit-identical to the TraceSet constructor when the
  /// accumulator folded the same traces in the same order — this is how
  /// stats::StreamingLeakage turns running moments into leakage estimates
  /// without a TraceSet.
  explicit SpectralAnalysis(const stats::ClassCondAccumulator& acc,
                            EstimatorMode mode);

  std::uint32_t numSamples() const { return numSamples_; }
  EstimatorMode mode() const { return mode_; }

  /// a_u(T); u in 0..15, T in 0..numSamples-1.
  double coefficient(std::uint32_t u, std::uint32_t t) const {
    return coeff_[static_cast<std::size_t>(u) * numSamples_ + t];
  }

  /// Squared-coefficient energy of source u at sample t; debiased if the
  /// estimator mode says so (floor-clamped at zero).
  double energy(std::uint32_t u, std::uint32_t t) const;

  /// The estimated mask-sampling noise floor per sample (zero in Raw mode).
  const std::vector<double>& noiseFloorPerSample() const {
    return noiseFloor_;
  }

  /// LeakagePower(T) = sum_{u != 0} energy(u, T), summed in u order.
  std::vector<double> leakagePowerPerSample() const;

  /// Same, restricted to single-bit (wH(u) == 1) or multi-bit (wH(u) >= 2)
  /// leakage sources.
  std::vector<double> singleBitLeakagePerSample() const;
  std::vector<double> multiBitLeakagePerSample() const;

  /// Sums over T of the three waves above, in T order.
  double totalLeakagePower() const { return total_; }
  double totalSingleBitLeakage() const { return singleBit_; }
  double totalMultiBitLeakage() const { return multiBit_; }

  /// Per-source total energy sum_T energy(u, T), summed in T order; u in
  /// 1..15 (u = 0, the DC term, reads 0).
  double totalSourceEnergy(std::uint32_t u) const { return sourceTotal_[u]; }

  /// Ratio of single-bit leakage to the total (the paper's ~14% unprotected
  /// vs ~0.5% protected observation).
  double singleBitToTotalRatio() const;

 private:
  void initFromAccumulator(const stats::ClassCondAccumulator& acc);
  void sumEnergies();
  std::uint32_t numSamples_;
  EstimatorMode mode_;
  std::vector<double> coeff_;       ///< [u][T], row-major
  std::vector<double> noiseFloor_;  ///< per sample, already divided by N_c
  // Waves and totals, computed once at construction (sumEnergies).
  std::vector<double> leakageWave_;
  std::vector<double> singleBitWave_;
  std::vector<double> multiBitWave_;
  std::array<double, 16> sourceTotal_{};
  double total_ = 0.0;
  double singleBit_ = 0.0;
  double multiBit_ = 0.0;
};

}  // namespace lpa
