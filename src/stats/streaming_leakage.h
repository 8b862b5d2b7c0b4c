#pragma once
// Incremental WHT leakage estimator with uncertainty (DESIGN.md §10).
//
// `StreamingLeakage` folds labelled traces one at a time and can produce, at
// any point during an acquisition:
//
//   * the point estimates of the batch pipeline — a_u(T), LeakagePower(T),
//     total / single-bit / multi-bit leakage — **bit-identical** to running
//     `SpectralAnalysis` over a TraceSet holding the same traces in the same
//     order (the global accumulator performs the exact same floating-point
//     op sequence);
//   * jackknife confidence intervals per aggregate and per WHT coefficient
//     energy, from K delete-one-fold replicates (fold of trace i = insertion
//     index i mod K, so fold membership is order-determined and
//     thread-count invariant when traces are folded in index order).
//
// The fold accumulators are combined with Chan's rule (stats/accumulator.h).
// The global accumulator carries the bit-identity contract with the batch
// path; the leave-one-out merge order carries one too. Replicate k merges
// folds 0..k-1 and then k+1..K-1, left to right, into an empty accumulator
// (estimate() shares the running prefix of folds 0..k-1 between
// replicates, which performs exactly those merges). Each replicate's
// aggregates sum its per-source totals over u in u order. Every CI
// half-width follows from those operations, and perfbench pins them.

#include <array>
#include <cstdint>
#include <vector>

#include "core/leakage.h"
#include "stats/accumulator.h"
#include "stats/confidence.h"
#include "trace/trace_set.h"

namespace lpa::stats {

/// Total spectral energy of one WHT source u with its jackknife half-width.
struct CoefficientCi {
  double energy = 0.0;
  double halfWidth = 0.0;
};

/// A full statistical snapshot of the leakage metrics at `traces` traces.
struct LeakageEstimate {
  std::uint64_t traces = 0;
  std::uint64_t minClassCount = 0;
  EstimatorMode mode = EstimatorMode::Debiased;
  double confidence = 0.95;

  // Point estimates, bit-identical to the batch SpectralAnalysis.
  double total = 0.0;
  double singleBit = 0.0;
  double multiBit = 0.0;
  double singleBitRatio = 0.0;

  // Jackknife intervals (estimate fields repeat the point estimates).
  AggregateCi totalCi;
  AggregateCi singleBitCi;
  AggregateCi multiBitCi;

  /// Per-source total energy sum_T energy(u, T) with half-widths; index by
  /// u in 1..15 (u = 0 is the DC term and stays zero).
  std::array<CoefficientCi, 16> coefficients{};
};

class StreamingLeakage {
 public:
  struct Options {
    EstimatorMode mode = EstimatorMode::Debiased;
    /// Number of jackknife folds K. More folds -> finer resampling but
    /// K spectral analyses per estimate() call.
    std::uint32_t numFolds = 10;
    double confidence = 0.95;
  };

  StreamingLeakage(std::uint32_t numSamples, Options opt);
  explicit StreamingLeakage(std::uint32_t numSamples)
      : StreamingLeakage(numSamples, Options()) {}

  /// Folds one labelled trace (class in 0..15). Order matters: fold the
  /// acquisition's traces in index order to stay bit-identical with the
  /// batch path and thread-count invariant.
  void addTrace(std::uint8_t cls, const double* x);

  /// Folds all traces of `ts` in index order.
  void addTraceSet(const TraceSet& ts);

  std::uint64_t traces() const { return all_.totalCount(); }
  std::uint32_t numSamples() const { return all_.numSamples(); }
  const Options& options() const { return opt_; }
  const ClassCondAccumulator& accumulator() const { return all_; }

  /// The batch spectral decomposition of everything folded so far —
  /// bit-identical to `SpectralAnalysis(TraceSet, mode)` on the same
  /// traces in the same order.
  SpectralAnalysis analysis() const;

  /// Point estimates + jackknife CIs. Intervals stay unresolved (+inf
  /// half-width) until every delete-one-fold replicate has at least two
  /// traces in every class, so early snapshots can never satisfy a
  /// convergence gate by accident.
  LeakageEstimate estimate() const;

 private:
  Options opt_;
  ClassCondAccumulator all_;
  std::vector<ClassCondAccumulator> folds_;
  std::uint64_t next_ = 0;  ///< insertion counter -> fold = next_ % K
};

}  // namespace lpa::stats
