// Tests for the statistics subsystem (src/stats, DESIGN.md §10): the
// streaming moment accumulator and its bit-identity contract with the batch
// SpectralAnalysis, confidence intervals (normal quantile, jackknife),
// ordering resolution, and the convergence monitor.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/ordering.h"
#include "core/experiment.h"
#include "stats/accumulator.h"
#include "stats/confidence.h"
#include "stats/convergence.h"
#include "stats/streaming_leakage.h"

namespace lpa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Accumulator, MomentsMatchDirectComputation) {
  // Two samples, class 3 gets {1, 2, 3} at sample 0 and {2, 4, 6} at
  // sample 1; class 7 gets a single trace.
  stats::ClassCondAccumulator acc(2, 16);
  const double t0[] = {1.0, 2.0};
  const double t1[] = {2.0, 4.0};
  const double t2[] = {3.0, 6.0};
  const double t3[] = {10.0, 20.0};
  acc.addTrace(3, t0);
  acc.addTrace(3, t1);
  acc.addTrace(3, t2);
  acc.addTrace(7, t3);

  EXPECT_EQ(acc.count(3), 3u);
  EXPECT_EQ(acc.count(7), 1u);
  EXPECT_EQ(acc.totalCount(), 4u);
  EXPECT_EQ(acc.minClassCount(), 0u);  // 14 classes still empty
  EXPECT_DOUBLE_EQ(acc.mean(3, 0), 2.0);
  EXPECT_DOUBLE_EQ(acc.mean(3, 1), 4.0);
  EXPECT_DOUBLE_EQ(acc.mean(7, 0), 10.0);
  EXPECT_DOUBLE_EQ(acc.variance(3, 0), 1.0);  // unbiased var of {1,2,3}
  EXPECT_DOUBLE_EQ(acc.variance(3, 1), 4.0);
  EXPECT_DOUBLE_EQ(acc.variance(7, 0), 0.0);  // undefined below 2 traces

  // Noise floor: (1/16) * sum_c Var_c(s)/N_c; only class 3 contributes.
  const std::vector<double> floor = acc.noiseFloorPerSample();
  ASSERT_EQ(floor.size(), 2u);
  EXPECT_DOUBLE_EQ(floor[0], (1.0 / 3.0) / 16.0);
  EXPECT_DOUBLE_EQ(floor[1], (4.0 / 3.0) / 16.0);
}

TEST(Accumulator, MergeIsAlgebraicallyExact) {
  // Chan's rule must reproduce the sequential moments up to FP reordering.
  stats::ClassCondAccumulator whole(3, 16), left(3, 16), right(3, 16);
  std::uint64_t state = 0x12345678ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) / 9.0e18;
  };
  for (int i = 0; i < 64; ++i) {
    const double x[] = {next(), next() * 5.0, next() - 0.5};
    const auto cls = static_cast<std::uint8_t>(i % 16);
    whole.addTrace(cls, x);
    (i < 40 ? left : right).addTrace(cls, x);
  }
  left.merge(right);
  ASSERT_EQ(left.totalCount(), whole.totalCount());
  for (std::uint32_t c = 0; c < 16; ++c) {
    EXPECT_EQ(left.count(c), whole.count(c));
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_NEAR(left.mean(c, s), whole.mean(c, s), 1e-12);
      EXPECT_NEAR(left.variance(c, s), whole.variance(c, s), 1e-12);
    }
  }
}

TEST(Accumulator, MergeOfEmptyIsIdentity) {
  stats::ClassCondAccumulator acc(1, 16), empty(1, 16);
  const double x[] = {2.5};
  acc.addTrace(0, x);
  acc.merge(empty);
  EXPECT_EQ(acc.count(0), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(0, 0), 2.5);

  stats::ClassCondAccumulator dst(1, 16);
  dst.merge(acc);  // merging into empty copies
  EXPECT_EQ(dst.count(0), 1u);
  EXPECT_DOUBLE_EQ(dst.mean(0, 0), 2.5);
}

TEST(Confidence, NormalQuantileMatchesTables) {
  EXPECT_NEAR(stats::normalQuantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(stats::normalQuantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(stats::normalQuantile(0.995), 2.5758293035489004, 1e-9);
  EXPECT_NEAR(stats::normalQuantile(0.001), -3.090232306167814, 1e-8);
  // Symmetry.
  EXPECT_NEAR(stats::normalQuantile(0.25), -stats::normalQuantile(0.75),
              1e-12);
  EXPECT_NEAR(stats::normalCriticalValue(0.95), 1.959963984540054, 1e-9);
  EXPECT_THROW(stats::normalQuantile(0.0), std::invalid_argument);
  EXPECT_THROW(stats::normalQuantile(1.0), std::invalid_argument);
  EXPECT_THROW(stats::normalCriticalValue(1.0), std::invalid_argument);
}

TEST(Confidence, JackknifeHandComputed) {
  // Replicates {1, 2, 3}: mean 2, sum of squared deviations 2,
  // var_jack = (K-1)/K * ss = 4/3.
  const stats::AggregateCi ci = stats::jackknifeCi({1.0, 2.0, 3.0}, 2.0, 0.95);
  EXPECT_DOUBLE_EQ(ci.estimate, 2.0);
  EXPECT_NEAR(ci.halfWidth,
              stats::normalCriticalValue(0.95) * std::sqrt(4.0 / 3.0), 1e-12);
  EXPECT_NEAR(ci.relHalfWidth, ci.halfWidth / 2.0, 1e-12);
  EXPECT_TRUE(ci.resolved());

  // Fewer than two replicates: unresolved by construction.
  const stats::AggregateCi one = stats::jackknifeCi({1.0}, 1.0, 0.95);
  EXPECT_FALSE(one.resolved());
  EXPECT_EQ(one.halfWidth, kInf);
}

stats::AggregateCi ciOf(double est, double hw) {
  stats::AggregateCi ci;
  ci.estimate = est;
  ci.halfWidth = hw;
  ci.relHalfWidth = est != 0.0 ? hw / std::abs(est) : kInf;
  return ci;
}

TEST(Confidence, ResolveOrderingVerdicts) {
  // Far-apart intervals: resolved, direction follows the estimates.
  stats::OrderingVerdict v =
      stats::resolveOrdering(ciOf(10.0, 0.5), ciOf(5.0, 0.5));
  EXPECT_EQ(v.direction, 1);
  EXPECT_TRUE(v.resolved);
  EXPECT_GT(v.zScore, stats::normalCriticalValue(0.95));

  // Heavily overlapping intervals: unresolved.
  v = stats::resolveOrdering(ciOf(10.0, 8.0), ciOf(9.0, 8.0));
  EXPECT_EQ(v.direction, 1);
  EXPECT_FALSE(v.resolved);

  // An unresolved input never resolves, whatever the separation.
  v = stats::resolveOrdering(ciOf(100.0, 1.0), stats::AggregateCi{});
  EXPECT_FALSE(v.resolved);

  // Zero variance on both sides: any nonzero difference is resolved.
  v = stats::resolveOrdering(ciOf(2.0, 0.0), ciOf(1.0, 0.0));
  EXPECT_TRUE(v.resolved);
  EXPECT_EQ(v.zScore, kInf);
  v = stats::resolveOrdering(ciOf(1.0, 0.0), ciOf(1.0, 0.0));
  EXPECT_EQ(v.direction, 0);
  EXPECT_FALSE(v.resolved);
}

TEST(StreamingLeakage, OptionValidation) {
  EXPECT_THROW(
      stats::StreamingLeakage(4, stats::StreamingLeakage::Options{
                                     EstimatorMode::Raw, /*numFolds=*/1, 0.95}),
      std::invalid_argument);
  EXPECT_THROW(
      stats::StreamingLeakage(4, stats::StreamingLeakage::Options{
                                     EstimatorMode::Raw, 10, /*conf=*/1.5}),
      std::invalid_argument);
}

// The ISSUE-pinned contract: the streaming estimator agrees with the batch
// WHT analysis on every implementation style. The agreement is required to
// be <= 1e-12; the implementation actually delivers bit-identity because
// folding in index order replays the batch path's FP op sequence.
TEST(StreamingLeakage, MatchesBatchAnalysisOnAllStyles) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  for (SboxStyle style : allSboxStyles()) {
    SCOPED_TRACE(sboxStyleName(style));
    SboxExperiment exp(style, cfg);
    const TraceSet traces = exp.acquireAt(0.0);

    for (EstimatorMode mode :
         {EstimatorMode::Raw, EstimatorMode::Debiased}) {
      const SpectralAnalysis batch(traces, mode);
      stats::StreamingLeakage stream(
          traces.numSamples(),
          stats::StreamingLeakage::Options{mode, 10, 0.95});
      stream.addTraceSet(traces);
      const SpectralAnalysis streamed = stream.analysis();

      EXPECT_EQ(streamed.totalLeakagePower(), batch.totalLeakagePower());
      EXPECT_EQ(streamed.totalSingleBitLeakage(),
                batch.totalSingleBitLeakage());
      EXPECT_EQ(streamed.totalMultiBitLeakage(),
                batch.totalMultiBitLeakage());
      for (std::uint32_t u = 1; u < 16; ++u) {
        for (std::uint32_t t = 0; t < batch.numSamples(); ++t) {
          EXPECT_EQ(streamed.energy(u, t), batch.energy(u, t))
              << "u=" << u << " t=" << t;
        }
      }

      const stats::LeakageEstimate est = stream.estimate();
      EXPECT_EQ(est.total, batch.totalLeakagePower());
      EXPECT_EQ(est.singleBit, batch.totalSingleBitLeakage());
      EXPECT_EQ(est.multiBit, batch.totalMultiBitLeakage());
      EXPECT_EQ(est.singleBitRatio, batch.singleBitToTotalRatio());
      EXPECT_EQ(est.traces, traces.size());
    }
  }
}

// The point values estimateAt reports are those of SpectralAnalysis over
// acquireAt's traces, bit for bit, in either mode.
TEST(StreamingLeakage, EstimateAtMatchesSpectralAnalysis) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  SboxExperiment exp(SboxStyle::Isw, cfg);
  for (EstimatorMode mode : {EstimatorMode::Raw, EstimatorMode::Debiased}) {
    const SpectralAnalysis batch(exp.acquireAt(0.0), mode);
    const stats::LeakageEstimate est = exp.estimateAt(0.0, mode);
    EXPECT_EQ(est.total, batch.totalLeakagePower());
    EXPECT_EQ(est.singleBit, batch.totalSingleBitLeakage());
    EXPECT_EQ(est.multiBit, batch.totalMultiBitLeakage());
    EXPECT_EQ(est.singleBitRatio, batch.singleBitToTotalRatio());
  }
  EXPECT_EQ(exp.estimateAt(0.0).total,
            SpectralAnalysis(exp.acquireAt(0.0), EstimatorMode::Debiased)
                .totalLeakagePower());
}

TEST(StreamingLeakage, EstimateInvariantInThreadCount) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  cfg.acquisition.numThreads = 1;
  SboxExperiment one(SboxStyle::Glut, cfg);
  cfg.acquisition.numThreads = 4;
  SboxExperiment four(SboxStyle::Glut, cfg);
  const stats::LeakageEstimate a = one.estimateAt(0.0);
  const stats::LeakageEstimate b = four.estimateAt(0.0);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.totalCi.halfWidth, b.totalCi.halfWidth);
  EXPECT_EQ(a.singleBitCi.halfWidth, b.singleBitCi.halfWidth);
}

TEST(StreamingLeakage, CiUnresolvedUntilFoldsCovered) {
  // 16 traces over 10 folds cannot give every leave-one-out accumulator two
  // traces per class: the interval must stay conservative (+inf).
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 1;
  SboxExperiment exp(SboxStyle::Lut, cfg);
  const stats::LeakageEstimate starved = exp.estimateAt(0.0);
  EXPECT_FALSE(starved.totalCi.resolved());
  EXPECT_EQ(starved.totalCi.halfWidth, kInf);
  EXPECT_EQ(starved.totalCi.estimate, starved.total);

  // 32 traces per class (3+ per class per fold) resolves it.
  cfg.acquisition.tracesPerClass = 32;
  SboxExperiment rich(SboxStyle::Lut, cfg);
  const stats::LeakageEstimate est = rich.estimateAt(0.0);
  EXPECT_TRUE(est.totalCi.resolved());
  EXPECT_GE(est.totalCi.halfWidth, 0.0);
  EXPECT_EQ(est.minClassCount, 32u);
}

TEST(ConvergenceMonitor, GatesOnTargetAndFloor) {
  stats::ConvergenceMonitor mon({/*targetCiRel=*/0.10, /*minTraces=*/64});
  EXPECT_FALSE(mon.converged());
  EXPECT_EQ(mon.currentCiRel(), kInf);

  stats::LeakageEstimate e;
  e.traces = 32;
  e.total = 100.0;
  e.totalCi = ciOf(100.0, 5.0);  // ciRel 5% — but below the trace floor
  mon.observe(e);
  EXPECT_FALSE(mon.converged());
  EXPECT_DOUBLE_EQ(mon.currentCiRel(), 0.05);

  e.traces = 64;
  e.totalCi = ciOf(100.0, 20.0);  // floor met but ciRel 20%
  mon.observe(e);
  EXPECT_FALSE(mon.converged());

  e.totalCi = ciOf(100.0, 8.0);  // both met
  mon.observe(e);
  EXPECT_TRUE(mon.converged());
  ASSERT_EQ(mon.history().size(), 3u);
  EXPECT_EQ(mon.history()[0].traces, 32u);
  EXPECT_DOUBLE_EQ(mon.history()[2].ciRel, 0.08);
}

TEST(Ordering, ResolveRankingSortsAndPairsAdjacent) {
  std::vector<StyleLeakage> measured = {
      {SboxStyle::Isw, ciOf(10.0, 0.1), 100},
      {SboxStyle::Lut, ciOf(1000.0, 0.1), 100},
      {SboxStyle::Rsm, ciOf(500.0, 400.0), 100},
      {SboxStyle::Glut, ciOf(400.0, 400.0), 100},
  };
  const auto pairs = resolveRanking(measured);
  ASSERT_EQ(pairs.size(), 3u);
  // Sorted most leaky first: LUT > RSM > GLUT > ISW.
  EXPECT_EQ(pairs[0].moreLeaky, SboxStyle::Lut);
  EXPECT_EQ(pairs[0].lessLeaky, SboxStyle::Rsm);
  EXPECT_TRUE(pairs[0].verdict.resolved);  // 1000 vs 500±400: z > 1.96
  EXPECT_EQ(pairs[1].moreLeaky, SboxStyle::Rsm);
  EXPECT_EQ(pairs[1].lessLeaky, SboxStyle::Glut);
  EXPECT_FALSE(pairs[1].verdict.resolved);  // overlapping wide intervals
  EXPECT_EQ(pairs[2].lessLeaky, SboxStyle::Isw);
  EXPECT_FALSE(rankingFullyResolved(pairs));

  EXPECT_TRUE(resolveRanking({measured[0]}).empty());
  EXPECT_TRUE(rankingFullyResolved({}));
}

}  // namespace
}  // namespace lpa
