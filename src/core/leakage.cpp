#include "core/leakage.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/wht.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace lpa {

SpectralAnalysis::SpectralAnalysis(const TraceSet& traces, EstimatorMode mode,
                                   std::size_t firstN)
    : numSamples_(traces.numSamples()), mode_(mode) {
  obs::Span span("wht.analysis (" + std::to_string(traces.size()) +
                 " traces)");
  obs::MetricsRegistry::global().counter("wht.analyses").add(1);
  if (traces.numClasses() != 16) {
    throw std::invalid_argument("spectral analysis expects 16 classes");
  }
  const std::size_t n =
      firstN == 0 ? traces.size() : std::min(firstN, traces.size());

  // Per-class mean and (unbiased) variance per sample, via Welford — folded
  // in trace-index order, the accumulator's bit-identity order.
  stats::ClassCondAccumulator acc(numSamples_, 16);
  acc.addTraceSet(traces, n);
  initFromAccumulator(acc);
}

SpectralAnalysis::SpectralAnalysis(const stats::ClassCondAccumulator& acc,
                                   EstimatorMode mode)
    : numSamples_(acc.numSamples()), mode_(mode) {
  obs::MetricsRegistry::global().counter("wht.analyses").add(1);
  if (acc.numClasses() != 16) {
    throw std::invalid_argument("spectral analysis expects 16 classes");
  }
  initFromAccumulator(acc);
}

void SpectralAnalysis::initFromAccumulator(
    const stats::ClassCondAccumulator& acc) {
  for (auto& wave : coeff_) wave.assign(numSamples_, 0.0);
  std::array<double, 16> f{};
  for (std::uint32_t t = 0; t < numSamples_; ++t) {
    for (std::uint32_t c = 0; c < 16; ++c) f[c] = acc.mean(c, t);
    const std::array<double, 16> a = whtCoefficients16(f);
    for (std::uint32_t u = 0; u < 16; ++u) coeff_[u][t] = a[u];
  }
  obs::MetricsRegistry::global().counter("wht.transforms").add(numSamples_);

  // Mask-sampling noise floor: Var(a_u_hat) = (1/16) sum_c Var_c / N_c,
  // identical for every u by orthonormality.
  noiseFloor_.assign(numSamples_, 0.0);
  if (mode_ == EstimatorMode::Debiased) {
    noiseFloor_ = acc.noiseFloorPerSample();
  }
}

double SpectralAnalysis::energy(std::uint32_t u, std::uint32_t t) const {
  const double raw = coeff_[u][t] * coeff_[u][t];
  if (mode_ == EstimatorMode::Raw) return raw;
  return std::max(0.0, raw - noiseFloor_[t]);
}

std::vector<double> SpectralAnalysis::sumOverU(int minWeight,
                                               int maxWeight) const {
  std::vector<double> out(numSamples_, 0.0);
  for (std::uint32_t u = 1; u < 16; ++u) {
    const int w = std::popcount(u);
    if (w < minWeight || w > maxWeight) continue;
    for (std::uint32_t t = 0; t < numSamples_; ++t) {
      out[t] += energy(u, t);
    }
  }
  return out;
}

std::vector<double> SpectralAnalysis::leakagePowerPerSample() const {
  return sumOverU(1, 4);
}

std::vector<double> SpectralAnalysis::singleBitLeakagePerSample() const {
  return sumOverU(1, 1);
}

std::vector<double> SpectralAnalysis::multiBitLeakagePerSample() const {
  return sumOverU(2, 4);
}

namespace {
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}
}  // namespace

double SpectralAnalysis::totalLeakagePower() const {
  return sum(leakagePowerPerSample());
}

double SpectralAnalysis::totalSingleBitLeakage() const {
  return sum(singleBitLeakagePerSample());
}

double SpectralAnalysis::totalMultiBitLeakage() const {
  return sum(multiBitLeakagePerSample());
}

double SpectralAnalysis::singleBitToTotalRatio() const {
  const double total = totalLeakagePower();
  return total > 0.0 ? totalSingleBitLeakage() / total : 0.0;
}

}  // namespace lpa
