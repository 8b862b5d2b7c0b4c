// Slow-tier property tests: adaptiveAcquireAt is the durable runner's
// group loop with durability off, so turning durability on (a checkpoint
// written after every group, every fast-engine group spot-checked) changes
// no batch, stop decision or bit; and a drained + resumed adaptive run is
// a strict prefix-identical continuation, across engines, thread counts
// and batch sizes.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/experiment.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
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

std::string tmpPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

constexpr stats::StreamingLeakage::Options kFourFolds{
    EstimatorMode::Debiased, /*numFolds=*/4, 0.95};

/// Adaptive operating point cheap enough to sweep: RSM netlist (masked: real within-class variance), 512-trace
/// budget.
ExperimentConfig adaptiveConfig(std::uint32_t batchSize, double targetCiRel) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 32;  // maxTraces budget = 512
  cfg.acquisition.adaptive = true;
  cfg.acquisition.batchSize = batchSize;
  cfg.acquisition.targetCiRel = targetCiRel;
  cfg.acquisition.numThreads = 1;
  return cfg;
}

const char* stopName(stats::AdaptiveStop stop) {
  return stop == stats::AdaptiveStop::CiTarget ? "ci-target" : "max-traces";
}

TEST(AdaptiveResilience, MatchesAdaptiveAcquireBitExactly) {
  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Auto};
  // 0.5 stops on the CI target after three 128-trace batches; every other
  // cell exhausts the budget — both stop paths must agree with and without
  // durability.
  const double targets[] = {0.5, 0.45, 1e-6};
  for (SimEngine engine : engines) {
    for (std::uint32_t batchSize : {128u, 256u}) {
      for (double target : targets) {
        ExperimentConfig cfg = adaptiveConfig(batchSize, target);
        cfg.acquisition.engine = engine;

        SboxExperiment plain(SboxStyle::Rsm, cfg);
        const stats::AdaptiveResult ar = plain.adaptiveAcquireAt(0.0, kFourFolds);

        const std::string path = tmpPath(
            "lpa_adaptive_durable_" +
            std::to_string(static_cast<int>(engine)) + "_" +
            std::to_string(batchSize) + ".ckpt");
        jobs::JobConfig job;
        job.checkpointPath = path;
        job.spotCheckEveryGroups = 1;
        job.statsOpt = kFourFolds;
        SboxExperiment exp(SboxStyle::Rsm, cfg);
        const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

        EXPECT_TRUE(traceSetsEqual(res.traces, ar.traces))
            << "engine " << static_cast<int>(engine) << " batch "
            << batchSize << " target " << target;
        EXPECT_EQ(res.estimate.total, ar.estimate.total);
        EXPECT_EQ(res.estimate.totalCi.halfWidth,
                  ar.estimate.totalCi.halfWidth);
        EXPECT_EQ(res.resilience.groupsCompleted, ar.batches);
        EXPECT_EQ(res.resilience.stopReason, stopName(ar.stop));
        EXPECT_EQ(res.history.size(), ar.history.size());
        EXPECT_FALSE(res.resilience.truncated);
        EXPECT_FALSE(res.resilience.quarantined);
        EXPECT_EQ(res.resilience.spotChecks,
                  engine == SimEngine::Reference ? 0u : ar.batches);
        std::remove(path.c_str());
      }
    }
  }
}

TEST(AdaptiveResilience, DrainAndResumeIsPrefixIdenticalContinuation) {
  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Auto};
  for (SimEngine engine : engines) {
    for (std::uint32_t threads : {1u, 0u}) {  // 0 = hardware concurrency
      ExperimentConfig cfg = adaptiveConfig(128, 1e-6);
      cfg.acquisition.engine = engine;
      cfg.acquisition.numThreads = threads;

      SboxExperiment plain(SboxStyle::Rsm, cfg);
      const stats::AdaptiveResult full = plain.adaptiveAcquireAt(0.0, kFourFolds);

      const std::string path = tmpPath(
          "lpa_adaptive_resume_" + std::to_string(static_cast<int>(engine)) +
          "_" + std::to_string(threads) + ".ckpt");
      jobs::JobConfig job;
      job.checkpointPath = path;
      job.statsOpt = kFourFolds;
      job.stopAfterGroups = 2;
      SboxExperiment first(SboxStyle::Rsm, cfg);
      const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
      EXPECT_TRUE(half.resilience.truncated);
      EXPECT_EQ(half.resilience.stopReason, "drain");
      ASSERT_EQ(half.traces.size(), 256u);
      // The drained run is a strict prefix of the uninterrupted one.
      for (std::size_t i = 0; i < half.traces.size(); ++i) {
        ASSERT_EQ(half.traces.label(i), full.traces.label(i));
        ASSERT_EQ(std::memcmp(half.traces.trace(i), full.traces.trace(i),
                              half.traces.numSamples() * sizeof(double)),
                  0);
      }

      jobs::JobConfig rest = job;
      rest.stopAfterGroups = 0;
      SboxExperiment second(SboxStyle::Rsm, cfg);
      const jobs::ResilientResult res = second.resilientAcquireAt(0.0, rest);
      EXPECT_TRUE(res.resilience.resumed);
      EXPECT_TRUE(traceSetsEqual(res.traces, full.traces))
          << "engine " << static_cast<int>(engine) << " threads " << threads;
      EXPECT_EQ(res.estimate.total, full.estimate.total);
      EXPECT_EQ(res.resilience.groupsCompleted, full.batches);
      EXPECT_EQ(res.resilience.stopReason, stopName(full.stop));
      // The resumed history starts at the point re-derived from the
      // checkpoint, then follows the uninterrupted run's.
      ASSERT_EQ(res.history.size() + 1, full.history.size());
      for (std::size_t i = 0; i < res.history.size(); ++i) {
        EXPECT_EQ(res.history[i].traces, full.history[i + 1].traces);
        EXPECT_EQ(res.history[i].total, full.history[i + 1].total);
      }
      std::remove(path.c_str());
    }
  }
}

}  // namespace
}  // namespace lpa
