// TVLA (Welch t-test) and CPA attack tests.

#include <gtest/gtest.h>

#include "analysis/cpa.h"
#include "analysis/tvla.h"
#include "core/experiment.h"
#include "crypto/present.h"
#include "trace/prng.h"

namespace lpa {
namespace {

/// The keyed protocol's configuration under seed 1 on `threads` workers.
AcquisitionConfig keyedConfig(std::uint32_t threads = 0) {
  AcquisitionConfig cfg;
  cfg.seed = 1;
  cfg.numThreads = threads;
  return cfg;
}

TEST(Welch, AccumulatorMeanAndVariance) {
  WelchAccumulator acc(2);
  acc.add(std::vector<double>{1.0, 10.0});
  acc.add(std::vector<double>{3.0, 10.0});
  acc.add(std::vector<double>{5.0, 10.0});
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_DOUBLE_EQ(acc.mean(0), 3.0);
  EXPECT_DOUBLE_EQ(acc.variance(0), 4.0);
  EXPECT_DOUBLE_EQ(acc.variance(1), 0.0);
}

TEST(Welch, TStatisticDetectsMeanShift) {
  WelchAccumulator a(1), b(1);
  Prng rng(4);
  for (int i = 0; i < 500; ++i) {
    a.add(std::vector<double>{rng.uniform01()});
    b.add(std::vector<double>{rng.uniform01() + 1.0});
  }
  const auto t = welchT(a, b);
  EXPECT_LT(t[0], -4.5);
  EXPECT_TRUE(tvlaFails(t));
}

TEST(Welch, NoShiftNoDetection) {
  WelchAccumulator a(1), b(1);
  Prng rng(5);
  for (int i = 0; i < 500; ++i) {
    a.add(std::vector<double>{rng.uniform01()});
    b.add(std::vector<double>{rng.uniform01()});
  }
  EXPECT_FALSE(tvlaFails(welchT(a, b)));
}

TEST(Welch, GuardsAgainstTinyPopulations) {
  WelchAccumulator a(1), b(1);
  a.add(std::vector<double>{0.0});
  b.add(std::vector<double>{0.0});
  EXPECT_THROW(welchT(a, b), std::invalid_argument);
}

TEST(Tvla, UnprotectedSboxFailsFixedVsRandom) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 16;
  SboxExperiment exp(SboxStyle::Lut, cfg);
  const TraceSet ts = exp.acquireAt(0.0);
  const auto t = fixedVsRandomT(ts, /*fixedClass=*/0);
  EXPECT_TRUE(tvlaFails(t)) << "an unprotected S-box must fail TVLA";
}

TEST(Cpa, RecoversKeyFromUnprotectedSbox) {
  const std::uint8_t key = 0xB;
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  const TraceSet ts = acquireKeyed(*sbox, sim, pm, keyedConfig(), key, 512);
  const CpaResult res = runCpa(ts);
  EXPECT_EQ(res.bestGuess, key);
  EXPECT_EQ(res.rankOf(key), 0);
  EXPECT_GT(res.peakCorrelation[key], 0.5);
}

TEST(Cpa, KeyRecoveryUsesPerTraceSeedingAndIsThreadInvariant) {
  // CPA sanity on the per-trace seeding contract: the keyed acquisition
  // recovers the key rank-1 on the unprotected LUT, and the whole attack
  // result (ranking and correlations) is identical for any worker count.
  const std::uint8_t key = 0x6;
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  const TraceSet seq = acquireKeyed(*sbox, sim, pm, keyedConfig(1), key, 512);
  const TraceSet par = acquireKeyed(*sbox, sim, pm, keyedConfig(4), key, 512);
  const CpaResult a = runCpa(seq);
  const CpaResult b = runCpa(par);
  EXPECT_EQ(a.bestGuess, key);
  EXPECT_EQ(a.rankOf(key), 0);
  EXPECT_GT(a.peakCorrelation[key], 0.5);
  for (std::uint8_t g = 0; g < 16; ++g) {
    EXPECT_EQ(a.ranking[g], b.ranking[g]);
    EXPECT_EQ(a.peakCorrelation[g], b.peakCorrelation[g]);
  }
}

TEST(Cpa, MaskingDegradesTheAttack) {
  const std::uint8_t key = 0x7;
  auto runOn = [&](SboxStyle style) {
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    EventSim sim(sbox->netlist(), dm);
    const TraceSet ts = acquireKeyed(*sbox, sim, pm, keyedConfig(), key, 384);
    return runCpa(ts);
  };
  const CpaResult unprotected = runOn(SboxStyle::Lut);
  const CpaResult masked = runOn(SboxStyle::Isw);
  EXPECT_EQ(unprotected.rankOf(key), 0);
  // The masked implementation must not give the attacker a cleaner signal
  // than the unprotected one.
  EXPECT_LT(masked.peakCorrelation[key] + 0.05,
            unprotected.peakCorrelation[key]);
}

TEST(Cpa, SuccessRateIsMonotoneShaped) {
  const std::uint8_t key = 0x3;
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  const TraceSet ts = acquireKeyed(*sbox, sim, pm, keyedConfig(), key, 512);
  const auto rate = cpaSuccessRate(ts, key, {32, 128, 512});
  ASSERT_EQ(rate.size(), 3u);
  EXPECT_EQ(rate.back(), 1.0) << "with 512 traces the key must be first";
}

TEST(Cpa, RankOfUnknownKeyIsWorstCaseBounded) {
  CpaResult r;
  for (std::uint8_t g = 0; g < 16; ++g) r.ranking[g] = g;
  EXPECT_EQ(r.rankOf(0), 0);
  EXPECT_EQ(r.rankOf(15), 15);
}

}  // namespace
}  // namespace lpa
