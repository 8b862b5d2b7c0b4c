// Slow-tier tests for convergence-gated acquisition (stats/adaptive.h):
// determinism across thread counts and engines, the early-stop-is-a-prefix
// contract, stop semantics, and config validation.

#include <gtest/gtest.h>

#include <cstring>

#include "core/experiment.h"
#include "stats/adaptive.h"

namespace lpa {
namespace {

bool traceSetsEqual(const TraceSet& a, const TraceSet& b) {
  if (a.size() != b.size() || a.numSamples() != b.numSamples()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.label(i) != b.label(i)) return false;
    if (std::memcmp(a.trace(i), b.trace(i),
                    a.numSamples() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool isPrefixOf(const TraceSet& prefix, const TraceSet& full) {
  if (prefix.size() > full.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (prefix.label(i) != full.label(i)) return false;
    if (std::memcmp(prefix.trace(i), full.trace(i),
                    prefix.numSamples() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

ExperimentConfig adaptiveConfig() {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 128;  // budget: 2048 traces
  cfg.acquisition.batchSize = 256;
  cfg.acquisition.targetCiRel = 0.45;
  return cfg;
}

constexpr stats::StreamingLeakage::Options kFourFolds{
    EstimatorMode::Debiased, /*numFolds=*/4, 0.95};

TEST(AdaptiveAcquire, BitReproducibleAcrossThreadCounts) {
  ExperimentConfig cfg = adaptiveConfig();
  cfg.acquisition.numThreads = 1;
  SboxExperiment one(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult a = one.adaptiveAcquireAt(0.0, kFourFolds);

  cfg.acquisition.numThreads = 0;  // hardware concurrency
  SboxExperiment many(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult b = many.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_TRUE(traceSetsEqual(a.traces, b.traces));
  EXPECT_EQ(a.stop, b.stop);
  EXPECT_EQ(a.batches, b.batches);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].total, b.history[i].total);
    EXPECT_EQ(a.history[i].ciHalfWidth, b.history[i].ciHalfWidth);
  }
}

TEST(AdaptiveAcquire, BitIdenticalAcrossEngines) {
  ExperimentConfig cfg = adaptiveConfig();
  cfg.acquisition.engine = SimEngine::Reference;
  SboxExperiment ref(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult a = ref.adaptiveAcquireAt(0.0, kFourFolds);

  cfg.acquisition.engine = SimEngine::Auto;  // batch: batches are >= 64
  SboxExperiment fast(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult b = fast.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_TRUE(traceSetsEqual(a.traces, b.traces));
  EXPECT_EQ(a.estimate.total, b.estimate.total);
  EXPECT_EQ(a.stop, b.stop);

  cfg.acquisition.engine = SimEngine::Batch;  // forced bit-parallel engine
  SboxExperiment bat(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult c = bat.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_TRUE(traceSetsEqual(a.traces, c.traces));
  EXPECT_EQ(a.estimate.total, c.estimate.total);
  EXPECT_EQ(a.stop, c.stop);

  // Batch engine + single worker: the lane-group sharding must be thread
  // invariant exactly like the scalar engines.
  cfg.acquisition.numThreads = 1;
  SboxExperiment batOne(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult d = batOne.adaptiveAcquireAt(0.0, kFourFolds);
  EXPECT_TRUE(traceSetsEqual(a.traces, d.traces));
  EXPECT_EQ(a.estimate.total, d.estimate.total);
}

TEST(AdaptiveAcquire, EarlyStopIsPrefixOfFullBudgetRun) {
  // The gated run must return exactly the first N traces of the run that
  // exhausts the budget: the stop rule reads the estimates, never the
  // trace generation (batch b's seed depends only on (seed, b)).
  ExperimentConfig gated = adaptiveConfig();
  SboxExperiment g(SboxStyle::Isw, gated);
  const stats::AdaptiveResult early = g.adaptiveAcquireAt(0.0, kFourFolds);
  ASSERT_EQ(early.stop, stats::AdaptiveStop::CiTarget)
      << "tune targetCiRel: the gated run must stop early for this test";
  ASSERT_LT(early.traces.size(), 2048u);

  ExperimentConfig full = adaptiveConfig();
  full.acquisition.targetCiRel = 1e-9;  // unreachable: burn the budget
  SboxExperiment f(SboxStyle::Isw, full);
  const stats::AdaptiveResult exhausted = f.adaptiveAcquireAt(0.0, kFourFolds);
  EXPECT_EQ(exhausted.stop, stats::AdaptiveStop::MaxTraces);
  EXPECT_EQ(exhausted.traces.size(), 2048u);

  EXPECT_TRUE(isPrefixOf(early.traces, exhausted.traces));
}

TEST(AdaptiveAcquire, StopSemanticsAndHistory) {
  ExperimentConfig cfg = adaptiveConfig();
  SboxExperiment exp(SboxStyle::Isw, cfg);
  const stats::AdaptiveResult res = exp.adaptiveAcquireAt(0.0, kFourFolds);

  EXPECT_EQ(res.stop, stats::AdaptiveStop::CiTarget);
  EXPECT_LT(res.traces.size(), 2048u);
  EXPECT_EQ(res.traces.size(), 256u * res.batches);
  EXPECT_EQ(res.estimate.traces, res.traces.size());
  EXPECT_LE(res.estimate.totalCi.relHalfWidth, 0.45);
  ASSERT_EQ(res.history.size(), res.batches);
  for (std::size_t i = 0; i < res.history.size(); ++i) {
    EXPECT_EQ(res.history[i].traces, 256u * (i + 1));
  }
  // Only the last point may meet the target (the loop stops there).
  for (std::size_t i = 0; i + 1 < res.history.size(); ++i) {
    EXPECT_GT(res.history[i].ciRel, 0.45);
  }
}

TEST(AdaptiveAcquire, RejectsMalformedConfig) {
  ExperimentConfig cfg = adaptiveConfig();
  SboxExperiment exp(SboxStyle::Isw, cfg);

  ExperimentConfig bad = cfg;
  bad.acquisition.batchSize = 0;
  SboxExperiment b0(SboxStyle::Isw, bad);
  EXPECT_THROW(b0.adaptiveAcquireAt(0.0), std::invalid_argument);

  bad = cfg;
  bad.acquisition.batchSize = 100;  // not a multiple of 16
  SboxExperiment b1(SboxStyle::Isw, bad);
  EXPECT_THROW(b1.adaptiveAcquireAt(0.0), std::invalid_argument);

  bad = cfg;
  bad.acquisition.targetCiRel = 0.0;
  SboxExperiment b2(SboxStyle::Isw, bad);
  EXPECT_THROW(b2.adaptiveAcquireAt(0.0), std::invalid_argument);

  bad = cfg;
  bad.acquisition.maxTraces = 100;  // not a multiple of 16
  SboxExperiment b3(SboxStyle::Isw, bad);
  EXPECT_THROW(b3.adaptiveAcquireAt(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace lpa
