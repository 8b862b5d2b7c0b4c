// The two-wide Welford fold of ClassCondAccumulator::addTrace
// (src/stats/accumulator.cpp, DESIGN.md §10) against the scalar loop it
// replaced, bit for bit: at odd and even sample counts, so both the paired
// samples and the scalar tail are covered. The same for Chan's merge and
// the noise floor, and StreamingLeakage::estimate against a scalar
// leave-one-out oracle built on these loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/wht.h"
#include "stats/accumulator.h"
#include "stats/confidence.h"
#include "stats/streaming_leakage.h"
#include "trace/prng.h"

namespace lpa {
namespace {

/// The scalar per-class Welford update, one sample at a time.
struct ScalarWelford {
  std::uint32_t numSamples;
  std::vector<std::uint64_t> count = std::vector<std::uint64_t>(16, 0);
  std::vector<double> mean, m2;

  explicit ScalarWelford(std::uint32_t n)
      : numSamples(n), mean(16u * n, 0.0), m2(16u * n, 0.0) {}

  void add(std::uint8_t cls, const double* x) {
    ++count[cls];
    const double k = static_cast<double>(count[cls]);
    double* mu = mean.data() + std::size_t(cls) * numSamples;
    double* s2 = m2.data() + std::size_t(cls) * numSamples;
    for (std::uint32_t s = 0; s < numSamples; ++s) {
      const double delta = x[s] - mu[s];
      mu[s] += delta / k;
      s2[s] += delta * (x[s] - mu[s]);
    }
  }

  /// Chan's combine, one sample at a time, quotients inside the loop.
  void merge(const ScalarWelford& o) {
    for (std::uint32_t c = 0; c < 16; ++c) {
      const std::uint64_t na = count[c];
      const std::uint64_t nb = o.count[c];
      if (nb == 0) continue;
      const std::size_t row = std::size_t(c) * numSamples;
      if (na == 0) {
        count[c] = nb;
        for (std::uint32_t s = 0; s < numSamples; ++s) {
          mean[row + s] = o.mean[row + s];
          m2[row + s] = o.m2[row + s];
        }
        continue;
      }
      const double da = static_cast<double>(na);
      const double db = static_cast<double>(nb);
      const double dab = da + db;
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const double delta = o.mean[row + s] - mean[row + s];
        mean[row + s] += delta * (db / dab);
        m2[row + s] += o.m2[row + s] + delta * delta * (da * db / dab);
      }
      count[c] = na + nb;
    }
  }

  /// (1/16) sum_c Var_c(s) / N_c over the classes with two or more traces.
  std::vector<double> noiseFloor() const {
    std::vector<double> floor(numSamples, 0.0);
    for (std::uint32_t c = 0; c < 16; ++c) {
      if (count[c] < 2) continue;
      const double n = static_cast<double>(count[c]);
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const double var = m2[std::size_t(c) * numSamples + s] / (n - 1.0);
        floor[s] += var / n;
      }
    }
    for (std::uint32_t s = 0; s < numSamples; ++s) floor[s] /= 16.0;
    return floor;
  }
};

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(WelfordFold, PairedSamplesAndTailMatchTheScalarLoop) {
  for (std::uint32_t numSamples : {1u, 3u, 101u}) {
    SCOPED_TRACE(std::to_string(numSamples) + " samples");
    stats::ClassCondAccumulator acc(numSamples);
    ScalarWelford ref(numSamples);
    Prng rng(0xF01D + numSamples);
    std::vector<double> x(numSamples);
    for (int i = 0; i < 400; ++i) {
      const std::uint8_t cls = rng.nibble();
      // Magnitudes from 1e-3 to 1e3 with a class-dependent offset, so the
      // deltas and quotients round in every way.
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
        x[s] = cls * 0.37 + u * (s % 7 == 0 ? 1e3 : s % 3 == 0 ? 1e-3 : 1.0);
      }
      acc.addTrace(cls, x.data());
      ref.add(cls, x.data());
      ASSERT_EQ(acc.count(cls), ref.count[cls]);
      const double n1 = static_cast<double>(ref.count[cls] - 1);
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const std::size_t at = std::size_t(cls) * numSamples + s;
        ASSERT_TRUE(sameBits(ref.mean[at], acc.mean(cls, s)))
            << "trace " << i << " sample " << s;
        // At count 2 the variance is M2 itself (M2 / 1); later it is the
        // same quotient on both sides.
        const double var = ref.count[cls] < 2 ? 0.0 : ref.m2[at] / n1;
        ASSERT_TRUE(sameBits(var, acc.variance(cls, s)))
            << "trace " << i << " sample " << s;
      }
    }
  }
}

/// One random trace: magnitudes from 1e-3 to 1e3 with a class-dependent
/// offset, so deltas and quotients round in every way.
void randomTrace(Prng& rng, std::uint8_t cls, std::vector<double>& x) {
  for (std::size_t s = 0; s < x.size(); ++s) {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
    x[s] = cls * 0.37 + u * (s % 7 == 0 ? 1e3 : s % 3 == 0 ? 1e-3 : 1.0);
  }
}

void expectSameMoments(const ScalarWelford& ref,
                       const stats::ClassCondAccumulator& acc) {
  for (std::uint32_t c = 0; c < 16; ++c) {
    ASSERT_EQ(acc.count(c), ref.count[c]) << "class " << c;
    const double n1 = static_cast<double>(ref.count[c] - 1);
    for (std::uint32_t s = 0; s < ref.numSamples; ++s) {
      const std::size_t at = std::size_t(c) * ref.numSamples + s;
      ASSERT_TRUE(sameBits(ref.mean[at], acc.mean(c, s)))
          << "class " << c << " sample " << s;
      const double var = ref.count[c] < 2 ? 0.0 : ref.m2[at] / n1;
      ASSERT_TRUE(sameBits(var, acc.variance(c, s)))
          << "class " << c << " sample " << s;
    }
  }
  const std::vector<double> floor = acc.noiseFloorPerSample();
  const std::vector<double> want = ref.noiseFloor();
  ASSERT_EQ(floor.size(), want.size());
  for (std::size_t s = 0; s < want.size(); ++s) {
    ASSERT_TRUE(sameBits(want[s], floor[s])) << "floor sample " << s;
  }
}

TEST(Accumulator, PairedMergeAndNoiseFloorMatchTheScalarLoop) {
  for (std::uint32_t numSamples : {1u, 3u, 101u}) {
    SCOPED_TRACE(std::to_string(numSamples) + " samples");
    // Three parts folded from one stream. Part a never sees classes 0-3,
    // part b never sees classes 2-5 and has a single trace of class 6, so
    // one merge meets every combination of empty, single and full rows.
    std::array<stats::ClassCondAccumulator, 3> parts = {
        stats::ClassCondAccumulator(numSamples),
        stats::ClassCondAccumulator(numSamples),
        stats::ClassCondAccumulator(numSamples)};
    std::array<ScalarWelford, 3> refs = {ScalarWelford(numSamples),
                                         ScalarWelford(numSamples),
                                         ScalarWelford(numSamples)};
    Prng rng(0x3E76E + numSamples);
    std::vector<double> x(numSamples);
    bool class6InB = false;
    for (int i = 0; i < 600; ++i) {
      const std::uint8_t cls = rng.nibble();
      const int part = static_cast<int>(rng.below(3));
      if (part == 0 && cls < 4) continue;
      if (part == 1 && cls >= 2 && cls < 6) continue;
      if (part == 1 && cls == 6) {
        if (class6InB) continue;
        class6InB = true;
      }
      randomTrace(rng, cls, x);
      parts[part].addTrace(cls, x.data());
      refs[part].add(cls, x.data());
    }

    // Into an empty accumulator (a copy), from an empty one (no change),
    // then between non-empty ones, in both directions.
    stats::ClassCondAccumulator acc(numSamples);
    ScalarWelford ref(numSamples);
    expectSameMoments(ref, acc);
    acc.merge(parts[0]);
    ref.merge(refs[0]);
    expectSameMoments(ref, acc);
    acc.merge(stats::ClassCondAccumulator(numSamples));
    ref.merge(ScalarWelford(numSamples));
    expectSameMoments(ref, acc);
    acc.merge(parts[1]);
    ref.merge(refs[1]);
    expectSameMoments(ref, acc);
    parts[2].merge(acc);
    refs[2].merge(ref);
    expectSameMoments(refs[2], parts[2]);
  }
}

// ---------------------------------------------------------------------------
// The leave-one-out oracle: the direct form of StreamingLeakage::estimate,
// on the scalar loops above. A fresh accumulator per replicate merges every
// other fold in index order; the spectrum is whtCoefficients16 per sample;
// energies are summed in the two orders the estimate reports (over T per
// source, and over u per T and then over T); the intervals are
// jackknifeCi.

struct OracleSpectrum {
  std::array<double, 16> source{};  ///< sum_T energy(u, T), T order
  /// Over u in u order at each T, then over T.
  double total = 0.0, singleBit = 0.0, multiBit = 0.0;
};

OracleSpectrum oracleSpectrum(const ScalarWelford& acc, EstimatorMode mode) {
  const std::uint32_t n = acc.numSamples;
  const std::vector<double> floor =
      mode == EstimatorMode::Debiased ? acc.noiseFloor()
                                      : std::vector<double>(n, 0.0);
  std::vector<std::array<double, 16>> energy(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    std::array<double, 16> f{};
    for (std::uint32_t c = 0; c < 16; ++c) f[c] = acc.mean[c * n + t];
    const std::array<double, 16> a = whtCoefficients16(f);
    for (std::uint32_t u = 0; u < 16; ++u) {
      const double raw = a[u] * a[u];
      energy[t][u] = mode == EstimatorMode::Raw
                         ? raw
                         : std::max(0.0, raw - floor[t]);
    }
  }
  OracleSpectrum out;
  for (std::uint32_t u = 1; u < 16; ++u) {
    for (std::uint32_t t = 0; t < n; ++t) out.source[u] += energy[t][u];
  }
  const auto sumOverU = [&](int minWeight, int maxWeight) {
    std::vector<double> wave(n, 0.0);
    for (std::uint32_t u = 1; u < 16; ++u) {
      const int w = std::popcount(u);
      if (w < minWeight || w > maxWeight) continue;
      for (std::uint32_t t = 0; t < n; ++t) wave[t] += energy[t][u];
    }
    double sum = 0.0;
    for (double v : wave) sum += v;
    return sum;
  };
  out.total = sumOverU(1, 4);
  out.singleBit = sumOverU(1, 1);
  out.multiBit = sumOverU(2, 4);
  return out;
}

/// Folds traces [0, traces) of a row-major block the way StreamingLeakage
/// does and returns the estimate the pre-prefix algorithm computed.
stats::LeakageEstimate oracleEstimate(
    const std::vector<std::uint8_t>& labels, const std::vector<double>& data,
    std::uint32_t numSamples, std::size_t traces,
    const stats::StreamingLeakage::Options& opt) {
  ScalarWelford all(numSamples);
  std::vector<ScalarWelford> folds(opt.numFolds, ScalarWelford(numSamples));
  for (std::size_t i = 0; i < traces; ++i) {
    const double* x = data.data() + i * numSamples;
    all.add(labels[i], x);
    folds[i % opt.numFolds].add(labels[i], x);
  }

  stats::LeakageEstimate e;
  e.traces = traces;
  e.minClassCount = *std::min_element(all.count.begin(), all.count.end());
  e.mode = opt.mode;
  e.confidence = opt.confidence;
  const OracleSpectrum full = oracleSpectrum(all, opt.mode);
  e.total = full.total;
  e.singleBit = full.singleBit;
  e.multiBit = full.multiBit;
  e.singleBitRatio = full.total > 0.0 ? full.singleBit / full.total : 0.0;

  std::vector<double> totalRep, singleRep, multiRep;
  std::array<std::vector<double>, 16> coeffRep;
  bool allValid = true;
  for (std::uint32_t k = 0; k < opt.numFolds; ++k) {
    ScalarWelford loo(numSamples);
    for (std::uint32_t j = 0; j < opt.numFolds; ++j) {
      if (j != k) loo.merge(folds[j]);
    }
    if (*std::min_element(loo.count.begin(), loo.count.end()) < 2) {
      allValid = false;
      break;
    }
    const OracleSpectrum sa = oracleSpectrum(loo, opt.mode);
    double total = 0.0, singleBit = 0.0, multiBit = 0.0;
    for (std::uint32_t u = 1; u < 16; ++u) {
      coeffRep[u].push_back(sa.source[u]);
      total += sa.source[u];
      (std::popcount(u) == 1 ? singleBit : multiBit) += sa.source[u];
    }
    totalRep.push_back(total);
    singleRep.push_back(singleBit);
    multiRep.push_back(multiBit);
  }

  for (std::uint32_t u = 1; u < 16; ++u) {
    e.coefficients[u].energy = full.source[u];
    e.coefficients[u].halfWidth = std::numeric_limits<double>::infinity();
  }
  if (allValid) {
    e.totalCi = stats::jackknifeCi(totalRep, e.total, opt.confidence);
    e.singleBitCi =
        stats::jackknifeCi(singleRep, e.singleBit, opt.confidence);
    e.multiBitCi = stats::jackknifeCi(multiRep, e.multiBit, opt.confidence);
    for (std::uint32_t u = 1; u < 16; ++u) {
      const stats::AggregateCi ci = stats::jackknifeCi(
          coeffRep[u], full.source[u], opt.confidence);
      e.coefficients[u].energy = ci.estimate;
      e.coefficients[u].halfWidth = ci.halfWidth;
    }
  } else {
    e.totalCi.estimate = e.total;
    e.singleBitCi.estimate = e.singleBit;
    e.multiBitCi.estimate = e.multiBit;
  }
  return e;
}

void expectSameCi(const stats::AggregateCi& want, const stats::AggregateCi& got,
                  const char* name) {
  EXPECT_TRUE(sameBits(want.estimate, got.estimate)) << name << ".estimate";
  EXPECT_TRUE(sameBits(want.halfWidth, got.halfWidth)) << name << ".halfWidth";
  EXPECT_TRUE(sameBits(want.relHalfWidth, got.relHalfWidth))
      << name << ".relHalfWidth";
}

/// Every field of the two estimates, bit for bit.
void expectSameEstimate(const stats::LeakageEstimate& want,
                        const stats::LeakageEstimate& got) {
  EXPECT_EQ(want.traces, got.traces);
  EXPECT_EQ(want.minClassCount, got.minClassCount);
  EXPECT_EQ(want.mode, got.mode);
  EXPECT_TRUE(sameBits(want.confidence, got.confidence));
  EXPECT_TRUE(sameBits(want.total, got.total)) << "total";
  EXPECT_TRUE(sameBits(want.singleBit, got.singleBit)) << "singleBit";
  EXPECT_TRUE(sameBits(want.multiBit, got.multiBit)) << "multiBit";
  EXPECT_TRUE(sameBits(want.singleBitRatio, got.singleBitRatio))
      << "singleBitRatio";
  expectSameCi(want.totalCi, got.totalCi, "totalCi");
  expectSameCi(want.singleBitCi, got.singleBitCi, "singleBitCi");
  expectSameCi(want.multiBitCi, got.multiBitCi, "multiBitCi");
  for (std::uint32_t u = 0; u < 16; ++u) {
    const stats::CoefficientCi& w = want.coefficients[u];
    const stats::CoefficientCi& g = got.coefficients[u];
    EXPECT_TRUE(sameBits(w.energy, g.energy))
        << "coefficients[" << u << "].energy";
    EXPECT_TRUE(sameBits(w.halfWidth, g.halfWidth))
        << "coefficients[" << u << "].halfWidth";
  }
}

TEST(StreamingLeakage, EstimateMatchesTheLeaveOneOutOracleBitForBit) {
  // Seeded synthetic traces: a class-dependent signal that differs per
  // sample, plus noise. Class 15 first appears at trace 300, so the early
  // snapshots have a class with no trace and then with one.
  const std::vector<std::size_t> snapshots = {1,   2,   17,  64,  299, 301,
                                              320, 400, 512, 1000, 2048};
  int starved = 0, resolved = 0;
  for (std::uint32_t numSamples : {1u, 3u, 100u}) {
    Prng rng(0x1EAF + numSamples);
    const std::size_t n = snapshots.back();
    std::vector<std::uint8_t> labels(n);
    std::vector<double> data(n * numSamples);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t cls = rng.nibble();
      if (i < 300 && cls == 15) cls = 14;
      if (i == 300) cls = 15;
      labels[i] = cls;
      for (std::uint32_t s = 0; s < numSamples; ++s) {
        const double signal =
            0.25 * std::popcount((cls * (s + 3u)) & 0xFu) - 0.1 * (cls & 1u);
        const double noise =
            static_cast<double>(rng.next() >> 11) * 0x1p-53 - 0.5;
        data[i * numSamples + s] = signal + noise * (s % 3 == 0 ? 4.0 : 0.5);
      }
    }
    for (std::uint32_t numFolds : {2u, 3u, 10u}) {
      for (EstimatorMode mode : {EstimatorMode::Raw, EstimatorMode::Debiased}) {
        for (double confidence : {0.90, 0.95}) {
          const stats::StreamingLeakage::Options opt{mode, numFolds,
                                                     confidence};
          stats::StreamingLeakage stream(numSamples, opt);
          std::size_t folded = 0;
          for (std::size_t snap : snapshots) {
            SCOPED_TRACE(std::to_string(numSamples) + " samples, K = " +
                         std::to_string(numFolds) + ", " +
                         (mode == EstimatorMode::Raw ? "Raw" : "Debiased") +
                         ", confidence " + std::to_string(confidence) +
                         ", " + std::to_string(snap) + " traces");
            for (; folded < snap; ++folded) {
              stream.addTrace(labels[folded],
                              data.data() + folded * numSamples);
            }
            const stats::LeakageEstimate got = stream.estimate();
            (got.totalCi.resolved() ? resolved : starved) += 1;
            expectSameEstimate(
                oracleEstimate(labels, data, numSamples, snap, opt), got);
          }
        }
      }
    }
  }

  // Both kinds of snapshot occurred: +inf intervals and finite ones.
  EXPECT_GT(starved, 0);
  EXPECT_GT(resolved, 0);

  // Acquired traces of two masked styles at 8 per class.
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  for (SboxStyle style : {SboxStyle::Glut, SboxStyle::Rsm}) {
    SboxExperiment exp(style, cfg);
    const TraceSet traces = exp.acquireAt(0.0);
    std::vector<std::uint8_t> labels(traces.size());
    std::vector<double> data;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      labels[i] = traces.label(i);
      data.insert(data.end(), traces.trace(i),
                  traces.trace(i) + traces.numSamples());
    }
    for (EstimatorMode mode : {EstimatorMode::Raw, EstimatorMode::Debiased}) {
      SCOPED_TRACE(std::string(sboxStyleName(style)) +
                   (mode == EstimatorMode::Raw ? " Raw" : " Debiased"));
      const stats::StreamingLeakage::Options opt{mode, 10, 0.95};
      stats::StreamingLeakage stream(traces.numSamples(), opt);
      stream.addTraceSet(traces);
      const stats::LeakageEstimate got = stream.estimate();
      EXPECT_TRUE(got.totalCi.resolved());
      expectSameEstimate(oracleEstimate(labels, data, traces.numSamples(),
                                        traces.size(), opt),
                         got);
    }
  }
}

}  // namespace
}  // namespace lpa
