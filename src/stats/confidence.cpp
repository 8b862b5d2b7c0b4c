#include "stats/confidence.h"

#include <cmath>
#include <stdexcept>

namespace lpa::stats {

double normalQuantile(double p) {
  if (!(p > 0.0) || !(p < 1.0)) {
    throw std::invalid_argument("normalQuantile: p must be in (0, 1)");
  }
  // Acklam's rational approximation with one Halley refinement step.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double pLow = 0.02425;
  double x;
  if (p < pLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - pLow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // Halley refinement against erfc for full double precision.
  const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
  constexpr double kSqrt2Pi = 2.506628274631000502;
  const double u = e * kSqrt2Pi * std::exp(x * x / 2.0);
  x -= u / (1.0 + x * u / 2.0);
  return x;
}

double normalCriticalValue(double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw std::invalid_argument(
        "normalCriticalValue: confidence must be in (0, 1)");
  }
  return normalQuantile(0.5 + confidence / 2.0);
}

namespace {

AggregateCi makeCi(double estimate, double halfWidth) {
  AggregateCi ci;
  ci.estimate = estimate;
  ci.halfWidth = halfWidth;
  ci.relHalfWidth = estimate != 0.0
                        ? halfWidth / std::abs(estimate)
                        : std::numeric_limits<double>::infinity();
  return ci;
}

}  // namespace

AggregateCi jackknifeCi(const std::vector<double>& leaveOneOut,
                        double fullEstimate, double confidence) {
  const std::size_t k = leaveOneOut.size();
  if (k < 2) {
    AggregateCi ci;
    ci.estimate = fullEstimate;
    return ci;
  }
  double mean = 0.0;
  for (double t : leaveOneOut) mean += t;
  mean /= static_cast<double>(k);
  double ss = 0.0;
  for (double t : leaveOneOut) {
    const double d = t - mean;
    ss += d * d;
  }
  const double varJack =
      (static_cast<double>(k) - 1.0) / static_cast<double>(k) * ss;
  const double hw = normalCriticalValue(confidence) * std::sqrt(varJack);
  return makeCi(fullEstimate, hw);
}

OrderingVerdict resolveOrdering(const AggregateCi& a, const AggregateCi& b,
                                double confidence) {
  OrderingVerdict v;
  const double diff = a.estimate - b.estimate;
  v.direction = diff > 0.0 ? 1 : (diff < 0.0 ? -1 : 0);
  if (!a.resolved() || !b.resolved()) return v;
  const double z = normalCriticalValue(confidence);
  const double seA = a.halfWidth / z;
  const double seB = b.halfWidth / z;
  const double se = std::sqrt(seA * seA + seB * seB);
  if (se == 0.0) {
    // Zero variance on both sides: any nonzero difference is resolved.
    v.zScore = diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity() *
                                       static_cast<double>(v.direction);
    v.resolved = diff != 0.0;
    return v;
  }
  v.zScore = diff / se;
  v.resolved = std::abs(v.zScore) >= z;
  return v;
}

}  // namespace lpa::stats
