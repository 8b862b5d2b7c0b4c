#pragma once
// Confidence intervals and ordering-resolution tests for leakage estimates
// (DESIGN.md §10). Intervals are delete-one-fold jackknifes: a CI depends
// only on the fold estimates — never on thread count or wall clock —
// matching the repo-wide determinism contract.

#include <cstdint>
#include <limits>
#include <vector>

namespace lpa::stats {

/// A symmetric two-sided confidence interval around a point estimate.
/// Half-widths start at +inf ("no information yet"), which makes
/// convergence gates conservative by construction: an estimate with too few
/// traces to resample can never satisfy a CI target.
struct AggregateCi {
  double estimate = 0.0;
  double halfWidth = std::numeric_limits<double>::infinity();
  /// halfWidth / |estimate|; +inf when the estimate is 0 or unresolved.
  double relHalfWidth = std::numeric_limits<double>::infinity();

  bool resolved() const { return halfWidth < std::numeric_limits<double>::infinity(); }
};

/// Inverse standard normal CDF (Acklam's rational approximation, |error|
/// < 1.15e-9 — far below the jackknife's own resolution). p in (0, 1).
double normalQuantile(double p);

/// Two-sided critical value for a symmetric interval at `confidence`
/// (e.g. 0.95 -> 1.95996...).
double normalCriticalValue(double confidence);

/// Delete-one-group jackknife: `leaveOneOut[k]` is the statistic computed
/// with fold k removed, `fullEstimate` the statistic over all folds.
///   var_jack = (K-1)/K * sum_k (theta_k - mean(theta))^2
/// Returns the full estimate with halfWidth = z * sqrt(var_jack). Needs at
/// least two leave-one-out values; fewer yields an unresolved interval.
AggregateCi jackknifeCi(const std::vector<double>& leaveOneOut,
                        double fullEstimate, double confidence);

/// Outcome of a pairwise ordering test between two interval estimates.
struct OrderingVerdict {
  /// +1 if a's estimate is larger, -1 if smaller, 0 if exactly equal.
  int direction = 0;
  /// Welch-style z score: (a - b) / sqrt(se_a^2 + se_b^2).
  double zScore = 0.0;
  /// True when |zScore| exceeds the two-sided critical value — the ordering
  /// is statistically resolved at the requested confidence, not a seed
  /// artifact.
  bool resolved = false;
};

/// Tests whether the ordering between two aggregate estimates is resolved
/// at `confidence`. Unresolved (infinite) intervals never resolve.
OrderingVerdict resolveOrdering(const AggregateCi& a, const AggregateCi& b,
                                double confidence = 0.95);

}  // namespace lpa::stats
