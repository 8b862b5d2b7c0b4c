#include "core/leakage.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/wht.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"

namespace lpa {

namespace {

struct WhtCounters {
  obs::Counter analyses;
  obs::Counter transforms;
};

// Resolved once: every registry lookup takes the registry's mutex.
const WhtCounters& whtCounters() {
  static const WhtCounters counters{
      obs::MetricsRegistry::global().counter("wht.analyses"),
      obs::MetricsRegistry::global().counter("wht.transforms")};
  return counters;
}

// The single-bit sources u = 1, 2, 4, 8 (wH(u) == 1) as a bit set.
constexpr std::uint32_t kSingleBitSources = 0x116;

double energyOf(double a, double floor, EstimatorMode mode) {
  const double raw = a * a;
  if (mode == EstimatorMode::Raw) return raw;
  return std::max(0.0, raw - floor);
}

}  // namespace

SpectralAnalysis::SpectralAnalysis(const TraceSet& traces, EstimatorMode mode,
                                   std::size_t firstN)
    : numSamples_(traces.numSamples()), mode_(mode) {
  obs::Span span("wht.analysis (" + std::to_string(traces.size()) +
                 " traces)");
  whtCounters().analyses.add(1);
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
  whtCounters().analyses.add(1);
  if (acc.numClasses() != 16) {
    throw std::invalid_argument("spectral analysis expects 16 classes");
  }
  initFromAccumulator(acc);
}

void SpectralAnalysis::initFromAccumulator(
    const stats::ClassCondAccumulator& acc) {
  // Wave c starts as class c's mean trace; the whole-wave transform leaves
  // a_u(T) in row u, each sample bit-identical to whtCoefficients16 of its
  // 16 class means.
  coeff_.reserve(static_cast<std::size_t>(16) * numSamples_);
  for (std::uint32_t c = 0; c < 16 && numSamples_ > 0; ++c) {
    const double* means = &acc.mean(c, 0);
    coeff_.insert(coeff_.end(), means, means + numSamples_);
  }
  whtCoefficients16(coeff_.data(), numSamples_);
  whtCounters().transforms.add(numSamples_);

  // Mask-sampling noise floor: Var(a_u_hat) = (1/16) sum_c Var_c / N_c,
  // identical for every u by orthonormality.
  if (mode_ == EstimatorMode::Debiased) {
    noiseFloor_ = acc.noiseFloorPerSample();
  } else {
    noiseFloor_.assign(numSamples_, 0.0);
  }
  sumEnergies();
}

void SpectralAnalysis::sumEnergies() {
  // One pass over T, two samples per operation and then a scalar tail. At
  // each T the energies are summed over u in u order into the three waves,
  // and each source's energy is added to its total in T order; the three
  // totals sum their waves over T in T order. Elementwise * and - round
  // each lane like the scalar expressions, and the lane select keeps
  // raw - floor where it is > 0 and 0 elsewhere (NaN included), which is
  // std::max(0.0, raw - floor) per lane.
  typedef double Pair __attribute__((vector_size(16)));
  const std::size_t n = numSamples_;
  const bool debiased = mode_ == EstimatorMode::Debiased;
  const double* a = coeff_.data();
  const Pair zero = {0.0, 0.0};
  leakageWave_.resize(n);
  singleBitWave_.resize(n);
  multiBitWave_.resize(n);
  // source[j] = the totals of sources 2j and 2j + 1; u = 0, the DC term,
  // adds zeros only.
  Pair source[8] = {};
  double total = 0.0, singleBit = 0.0, multiBit = 0.0;
  std::size_t t = 0;
  for (; t + 2 <= n; t += 2) {
    Pair floor;
    std::memcpy(&floor, noiseFloor_.data() + t, sizeof(Pair));
    const auto energyAt = [&](std::uint32_t u) {
      Pair e;
      std::memcpy(&e, a + u * n + t, sizeof(Pair));
      e *= e;
      if (debiased) {
        e -= floor;
        e = e > zero ? e : zero;
      }
      return e;
    };
    Pair all = zero, single = zero, multi = zero;
    const auto addToWaves = [&](std::uint32_t u, Pair e) {
      all += e;
      if ((kSingleBitSources >> u) & 1u) {
        single += e;
      } else {
        multi += e;
      }
    };
    // Unrolled, so u is a constant in each copy: the wave each energy
    // joins is fixed and the source totals stay in registers.
#pragma GCC unroll 8
    for (std::uint32_t u = 0; u < 16; u += 2) {
      const Pair e0 = u == 0 ? zero : energyAt(u);
      if (u != 0) addToWaves(u, e0);
      const Pair e1 = energyAt(u + 1);
      addToWaves(u + 1, e1);
      source[u / 2] += Pair{e0[0], e1[0]};
      source[u / 2] += Pair{e0[1], e1[1]};
    }
    std::memcpy(leakageWave_.data() + t, &all, sizeof(Pair));
    std::memcpy(singleBitWave_.data() + t, &single, sizeof(Pair));
    std::memcpy(multiBitWave_.data() + t, &multi, sizeof(Pair));
    total += all[0];
    total += all[1];
    singleBit += single[0];
    singleBit += single[1];
    multiBit += multi[0];
    multiBit += multi[1];
  }
  for (; t < n; ++t) {
    double e[16] = {};
    double all = 0.0, single = 0.0, multi = 0.0;
    for (std::uint32_t u = 1; u < 16; ++u) {
      e[u] = energyOf(a[u * n + t], noiseFloor_[t], mode_);
      all += e[u];
      if ((kSingleBitSources >> u) & 1u) {
        single += e[u];
      } else {
        multi += e[u];
      }
    }
    for (std::uint32_t j = 0; j < 8; ++j) {
      source[j] += Pair{e[2 * j], e[2 * j + 1]};
    }
    leakageWave_[t] = all;
    singleBitWave_[t] = single;
    multiBitWave_[t] = multi;
    total += all;
    singleBit += single;
    multiBit += multi;
  }
  for (std::uint32_t j = 0; j < 8; ++j) {
    sourceTotal_[2 * j] = source[j][0];
    sourceTotal_[2 * j + 1] = source[j][1];
  }
  total_ = total;
  singleBit_ = singleBit;
  multiBit_ = multiBit;
}

double SpectralAnalysis::energy(std::uint32_t u, std::uint32_t t) const {
  return energyOf(coefficient(u, t), noiseFloor_[t], mode_);
}

std::vector<double> SpectralAnalysis::leakagePowerPerSample() const {
  return leakageWave_;
}

std::vector<double> SpectralAnalysis::singleBitLeakagePerSample() const {
  return singleBitWave_;
}

std::vector<double> SpectralAnalysis::multiBitLeakagePerSample() const {
  return multiBitWave_;
}

double SpectralAnalysis::singleBitToTotalRatio() const {
  return total_ > 0.0 ? singleBit_ / total_ : 0.0;
}

}  // namespace lpa
