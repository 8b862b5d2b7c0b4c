// Tier-1 suite for quantized-grid acquisition plumbing (DESIGN.md §14):
// Auto never selects the mode (bit-identical to the exact Auto run), the
// scalar engines reject it at the acquisition layer, a forced quantized
// batch run is deterministic and thread-count invariant, quantized
// leakage stays sane (the unprotected style still towers over GLUT, and
// GLUT's total stays in the exact run's neighborhood), and the
// durability layer self-checks: quantized checkpoints resume
// bit-identically, spot-checks re-run under the same engine without
// quarantining, and the checkpoint fingerprint separates quantized from
// exact runs.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/experiment.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
#include "trace/acquisition.h"

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

ExperimentConfig quantConfig(std::uint32_t tracesPerClass = 8) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = tracesPerClass;
  cfg.acquisition.numThreads = 1;
  cfg.acquisition.engine = SimEngine::Batch;
  cfg.acquisition.timeQuantization = TimeQuantization::SampleGrid;
  return cfg;
}

TEST(QuantAcquire, AutoNeverSelectsQuantized) {
  // Auto + SampleGrid must serve the exact engines: bit-identical to the
  // plain Auto run, preserving the pinned determinism digest.
  ExperimentConfig exact;
  exact.acquisition.tracesPerClass = 8;
  exact.acquisition.numThreads = 1;
  SboxExperiment plain(SboxStyle::Glut, exact);
  const TraceSet expected = plain.acquireAt(0.0);

  ExperimentConfig cfg = exact;
  cfg.acquisition.timeQuantization = TimeQuantization::SampleGrid;
  SboxExperiment quant(SboxStyle::Glut, cfg);
  EXPECT_TRUE(traceSetsEqual(expected, quant.acquireAt(0.0)));
}

TEST(QuantAcquire, ScalarEnginesRejectQuantized) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;
  cfg.numThreads = 1;
  cfg.timeQuantization = TimeQuantization::SampleGrid;
  for (SimEngine engine : {SimEngine::Reference, SimEngine::Compiled}) {
    cfg.engine = engine;
    EXPECT_THROW(acquire(*sbox, sim, pm, cfg), std::invalid_argument)
        << "engine " << static_cast<int>(engine);
  }
  EXPECT_THROW(acquireKeyed(*sbox, sim, pm, /*key=*/0xB, 32, /*seed=*/5,
                            /*numThreads=*/1, SimEngine::Reference,
                            TimeQuantization::SampleGrid),
               std::invalid_argument);
}

TEST(QuantAcquire, DeterministicAndThreadInvariant) {
  ExperimentConfig base = quantConfig(13);  // 208 traces: partial tail group
  SboxExperiment exp1(SboxStyle::Glut, base);
  const TraceSet first = exp1.acquireAt(0.0);

  for (std::uint32_t threads : {1u, 2u, 0u}) {
    ExperimentConfig cfg = base;
    cfg.acquisition.numThreads = threads;
    SboxExperiment exp2(SboxStyle::Glut, cfg);
    EXPECT_TRUE(traceSetsEqual(first, exp2.acquireAt(0.0)))
        << "threads " << threads;
  }

  // Keyed acquisition under the quantized batch engine: same contract.
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  const TraceSet k1 =
      acquireKeyed(*sbox, sim, pm, 0x7, 100, 5, 1, SimEngine::Batch,
                   TimeQuantization::SampleGrid);
  const TraceSet k2 =
      acquireKeyed(*sbox, sim, pm, 0x7, 100, 5, 2, SimEngine::Batch,
                   TimeQuantization::SampleGrid);
  EXPECT_TRUE(traceSetsEqual(k1, k2));
}

TEST(QuantAcquire, LeakageStaysSaneUnderQuantization) {
  // Not bit-identity but leakage equivalence (the full Fig. 7 ordering is
  // gated nightly against LEAKAGE_golden.json): the unprotected style must
  // still tower over GLUT, and GLUT's quantized total must stay in the
  // exact total's neighborhood. Quantization legitimately collapses
  // sub-sample glitch power — GLUT's quantized total measures ~0.48x of
  // exact at this deterministic operating point (DESIGN.md §14) — so the
  // band is [0.25x, 1.5x]: wide enough for legitimate estimator drift,
  // tight enough to catch a broken merge rule (which would zero or
  // multiply the glitch energy).
  const auto totalAt = [](SboxStyle style, TimeQuantization q) {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = 32;
    cfg.acquisition.seed = 0x601E421E5FULL;  // the calibrated golden seed
    cfg.acquisition.engine = SimEngine::Batch;
    cfg.acquisition.timeQuantization = q;
    SboxExperiment exp(style, cfg);
    return exp.analyzeAt(0.0, EstimatorMode::Debiased).totalLeakagePower();
  };
  const double lutQ = totalAt(SboxStyle::Lut, TimeQuantization::SampleGrid);
  const double glutQ = totalAt(SboxStyle::Glut, TimeQuantization::SampleGrid);
  const double glutE = totalAt(SboxStyle::Glut, TimeQuantization::Exact);
  EXPECT_GT(lutQ, glutQ);
  EXPECT_GT(glutQ, 0.25 * glutE);
  EXPECT_LT(glutQ, 1.5 * glutE);
}

TEST(QuantAcquire, CheckpointResumeBitIdenticalWithSelfSpotCheck) {
  ExperimentConfig ecfg = quantConfig(8);  // 128 traces
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected = jobs::digestOfTraceSet(plain.acquireAt(0.0));

  const std::string path = tmpPath("lpa_quant_resume.ckpt");
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 32;  // 4 groups
  job.stopAfterGroups = 2;
  job.spotCheckEveryGroups = 1;  // every group self-spot-checks
  SboxExperiment first(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
  EXPECT_TRUE(half.resilience.truncated);
  EXPECT_EQ(half.resilience.groupsCompleted, 2u);
  EXPECT_GT(half.resilience.spotChecks, 0u);
  EXPECT_FALSE(half.resilience.quarantined);

  jobs::JobConfig rest = job;
  rest.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult full = second.resilientAcquireAt(0.0, rest);
  EXPECT_TRUE(full.resilience.resumed);
  EXPECT_EQ(full.resilience.stopReason, "completed");
  EXPECT_EQ(full.resilience.groupsCompleted, 4u);
  EXPECT_FALSE(full.resilience.quarantined);
  EXPECT_EQ(jobs::digestOfTraceSet(full.traces), expected);
  std::remove(path.c_str());
}

TEST(QuantAcquire, FingerprintSeparatesQuantizedFromExact) {
  ExperimentConfig ecfg;
  ecfg.acquisition.tracesPerClass = 8;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const Netlist& nl = exp.sbox().netlist();
  const DelayModel delays(nl, ecfg.delay);
  const PowerModel power(nl, ecfg.power);
  const EventSim sim(nl, delays, ecfg.sim);
  jobs::JobConfig job;

  AcquisitionConfig exact = ecfg.acquisition;
  AcquisitionConfig quant = exact;
  quant.engine = SimEngine::Batch;
  quant.timeQuantization = TimeQuantization::SampleGrid;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), sim, power, exact, job),
            jobs::acquisitionFingerprint(exp.sbox(), sim, power, quant, job));

  // Within quantized mode the engine/thread exclusions still apply.
  AcquisitionConfig quant2 = quant;
  quant2.numThreads = 7;
  EXPECT_EQ(jobs::acquisitionFingerprint(exp.sbox(), sim, power, quant, job),
            jobs::acquisitionFingerprint(exp.sbox(), sim, power, quant2, job));

  // An exact checkpoint must not be adopted by a quantized run: the
  // quantized run restarts from scratch and stays self-consistent.
  const std::string path = tmpPath("lpa_quant_foreign.ckpt");
  jobs::JobConfig job1;
  job1.checkpointPath = path;
  job1.groupTraces = 32;
  job1.stopAfterGroups = 2;
  SboxExperiment exactExp(SboxStyle::Opt, ecfg);
  (void)exactExp.resilientAcquireAt(0.0, job1);

  ExperimentConfig qcfg = ecfg;
  qcfg.acquisition.engine = SimEngine::Batch;
  qcfg.acquisition.timeQuantization = TimeQuantization::SampleGrid;
  jobs::JobConfig job2 = job1;
  job2.stopAfterGroups = 0;
  SboxExperiment quantExp(SboxStyle::Opt, qcfg);
  const jobs::ResilientResult res = quantExp.resilientAcquireAt(0.0, job2);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);
  SboxExperiment quantPlain(SboxStyle::Opt, qcfg);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfTraceSet(quantPlain.acquireAt(0.0)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lpa
