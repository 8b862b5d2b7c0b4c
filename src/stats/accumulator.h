#pragma once
// Single-pass class-conditional moment accumulator — the streaming core of
// the statistics subsystem (DESIGN.md §10).
//
// `ClassCondAccumulator` folds labelled power traces one at a time into
// per-class per-sample running mean and M2 (sum of squared deviations)
// using Welford's algorithm, so class-conditional means and unbiased
// variances — everything the WHT leakage estimator consumes — are available
// at any point during an acquisition without materializing a TraceSet.
//
// ## Bit-identity contract with the batch path
//
// Folding the traces of a TraceSet in index order performs the *exact*
// floating-point operation sequence the batch `SpectralAnalysis` performed
// before the stats refactor (per-class Welford in trace order), so the
// streaming estimator is bit-identical to the batch estimator — not merely
// close. tests/test_stats.cpp pins this on all seven implementation styles.
//
// `merge()` uses Chan's parallel combination rule. Merged moments are
// algebraically exact but follow a different floating-point op order than
// sequential folding, so merge is reserved for resampling (jackknife fold
// recombination, stats/streaming_leakage.h) where no bit-identity contract
// applies.

#include <cstdint>
#include <vector>

#include "trace/trace_set.h"

namespace lpa::stats {

class ClassCondAccumulator {
 public:
  explicit ClassCondAccumulator(std::uint32_t numSamples,
                                std::uint32_t numClasses = 16);

  /// Folds one trace of `numSamples()` samples labelled `cls`. Welford
  /// update: O(numSamples), no allocation.
  void addTrace(std::uint8_t cls, const double* x);

  /// Folds `traces` in index order (the bit-identity order). If `firstN` >
  /// 0 only the first `firstN` traces are folded.
  void addTraceSet(const TraceSet& traces, std::size_t firstN = 0);

  /// Chan's parallel combine: afterwards *this holds the moments of the
  /// union of both accumulators' traces. Shapes must match.
  void merge(const ClassCondAccumulator& other);

  std::uint32_t numSamples() const { return numSamples_; }
  std::uint32_t numClasses() const { return numClasses_; }

  std::uint64_t count(std::uint32_t cls) const { return count_[cls]; }
  std::uint64_t totalCount() const;
  /// Smallest per-class count (0 if any class has no trace yet).
  std::uint64_t minClassCount() const;

  double mean(std::uint32_t cls, std::uint32_t s) const {
    return mean_[cls * numSamples_ + s];
  }
  /// Unbiased per-class variance at sample `s`; 0 while count(cls) < 2.
  double variance(std::uint32_t cls, std::uint32_t s) const;

  /// Mask-sampling noise floor of the orthonormal-WHT coefficient
  /// estimates: (1/numClasses) * sum_c Var_c(s)/N_c, the quantity the
  /// debiased estimator subtracts (core/leakage.h). Classes with fewer than
  /// two traces contribute zero, exactly as the batch path computed it.
  std::vector<double> noiseFloorPerSample() const;

 private:
  std::uint32_t numSamples_;
  std::uint32_t numClasses_;
  std::vector<std::uint64_t> count_;  // per class
  std::vector<double> mean_;          // [cls][sample], row-major
  std::vector<double> m2_;            // [cls][sample], row-major
};

}  // namespace lpa::stats
