// Tier-1 tests for the durability layer (jobs/): the append-only
// checkpoint format and its torn-tail contract, acquireRange slicing,
// crash-safe checkpoint/resume (including a real SIGKILL kill-harness),
// deadlines, retry/escalation, engine quarantine, the rollback of the
// streamed fold, and the pinned bits of adaptiveAcquireAt (the group loop
// in adaptive mode).

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "jobs/checkpoint.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
#include "obs/run_report.h"
#include "stats/adaptive.h"
#include "stats/report.h"
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

/// Cheap fixed-schedule operating point: OPT netlist, 8 traces/class
/// (128 traces), uneven 48-trace groups (exercises the partial last
/// group).
ExperimentConfig smallConfig() {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 8;
  cfg.acquisition.numThreads = 1;
  return cfg;
}

constexpr stats::StreamingLeakage::Options kFourFolds{
    EstimatorMode::Debiased, /*numFolds=*/4, 0.95};

/// Adaptive operating point: RSM (masked, so the CI resolves), a
/// 512-trace budget in batches of 128, one thread.
ExperimentConfig rsmAdaptiveConfig(double targetCiRel) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 32;
  cfg.acquisition.batchSize = 128;
  cfg.acquisition.targetCiRel = targetCiRel;
  cfg.acquisition.numThreads = 1;
  return cfg;
}

/// The estimate a fresh streaming fold of `traces` gives.
stats::LeakageEstimate foldOf(const TraceSet& traces,
                              const stats::StreamingLeakage::Options& opt) {
  stats::StreamingLeakage stream(traces.numSamples(), opt);
  stream.addTraceSet(traces);
  return stream.estimate();
}

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ---------------------------------------------------------------- slicing

TEST(AcquireRange, SlicesConcatenateToFullAcquire) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const Netlist& nl = exp.sbox().netlist();
  const DelayModel delays(nl, ecfg.delay);
  const PowerModel power(nl, ecfg.power);
  EventSim sim(nl, delays, ecfg.sim);

  const AcquisitionConfig& cfg = ecfg.acquisition;
  const TraceSet full = acquireRange(exp.sbox(), sim, power, cfg, 0, 128);
  EXPECT_TRUE(traceSetsEqual(full, acquire(exp.sbox(), sim, power, cfg)));

  // Re-acquire in three uneven slices, mixing engines per slice (the
  // one-trace slice is one partial lane group).
  AcquisitionConfig c1 = cfg;
  c1.engine = SimEngine::Reference;
  TraceSet got = acquireRange(exp.sbox(), sim, power, c1, 0, 50);
  AcquisitionConfig c2 = cfg;
  c2.engine = SimEngine::Auto;
  got.append(acquireRange(exp.sbox(), sim, power, c2, 50, 51));
  got.append(acquireRange(exp.sbox(), sim, power, c2, 51, 128));

  EXPECT_TRUE(traceSetsEqual(got, full));
  EXPECT_EQ(acquireRange(exp.sbox(), sim, power, cfg, 7, 7).size(), 0u);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, cfg, 10, 9),
               std::invalid_argument);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, cfg, 0, 129),
               std::invalid_argument);
  AcquisitionConfig bad = cfg;
  bad.adaptive = true;
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, bad, 0, 16),
               std::invalid_argument);
  // Adaptive runs go through the resilient group loop, never acquire().
  EXPECT_THROW(acquire(exp.sbox(), sim, power, bad), std::invalid_argument);
  EXPECT_THROW(acquireRange(exp.sbox(), sim, power, bad, 0,
                            16u * bad.tracesPerClass,
                            [](std::uint8_t, const double*) {}),
               std::invalid_argument);
}

// ----------------------------------------------------------- checkpoints

std::string readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// LPACKPT2 sizes: the header is magic, fingerprint, numSamples,
// groupTraces and a checksum; a record of n traces is its count, n labels,
// n traces of samples and a checksum.
constexpr std::uint64_t kHeaderBytes = 8 + 8 + 4 + 4 + 8;
std::uint64_t recordBytes(std::uint64_t n, std::uint64_t numSamples) {
  return 4 + n * (1 + 8 * numSamples) + 8;
}

TEST(Checkpoint, MissingFileIsAbsent) {
  std::string whyNot;
  EXPECT_FALSE(
      jobs::loadCheckpoint(tmpPath("lpa_ckpt_missing.bin"), &whyNot));
  EXPECT_EQ(whyNot, "no checkpoint file");
}

TEST(Checkpoint, TornOrCorruptRecordEndsTheCommittedPrefix) {
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig job;
  job.groupTraces = 32;  // 128 traces -> 4 groups
  job.statsOpt = kFourFolds;
  SboxExperiment cleanExp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult clean = cleanExp.resilientAcquireAt(0.0, job);

  // Drain after three groups: the file is the header and three records,
  // holding exactly the drained run's traces.
  const std::string path = tmpPath("lpa_ckpt_torn.ckpt");
  job.checkpointPath = path;
  job.stopAfterGroups = 3;
  SboxExperiment first(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult drained = first.resilientAcquireAt(0.0, job);
  const std::uint32_t numSamples = drained.traces.numSamples();
  const std::uint64_t record = recordBytes(32, numSamples);
  const std::string bytes = readBytes(path);
  ASSERT_EQ(bytes.size(), kHeaderBytes + 3 * record);
  std::string whyNot = "unset";
  const auto whole = jobs::loadCheckpoint(path, &whyNot);
  ASSERT_TRUE(whole.has_value()) << whyNot;
  EXPECT_EQ(whyNot, "");
  EXPECT_EQ(whole->header.numSamples, numSamples);
  EXPECT_EQ(whole->header.groupTraces, 32u);
  EXPECT_EQ(whole->recordTraces, (std::vector<std::uint32_t>{32, 32, 32}));
  EXPECT_EQ(whole->endBytes, bytes.size());
  EXPECT_TRUE(traceSetsEqual(whole->traces, drained.traces));

  // A damaged file loads as the whole records before the damage, and the
  // run resumes from them to the uninterrupted run's bits, cutting the
  // damaged tail before it appends the rest.
  const auto resumeFrom = [&](const char* what, const std::string& damaged,
                              std::size_t wholeRecords) {
    SCOPED_TRACE(what);
    writeBytes(path, damaged);
    std::string why;
    const auto loaded = jobs::loadCheckpoint(path, &why);
    ASSERT_TRUE(loaded.has_value()) << why;
    EXPECT_NE(why, "");
    EXPECT_EQ(loaded->recordTraces.size(), wholeRecords);
    EXPECT_EQ(loaded->endBytes, kHeaderBytes + wholeRecords * record);
    TraceSet prefix = drained.traces;
    prefix.truncate(32 * wholeRecords);
    EXPECT_TRUE(traceSetsEqual(loaded->traces, prefix));

    jobs::JobConfig rest = job;
    rest.stopAfterGroups = 0;
    SboxExperiment second(SboxStyle::Opt, ecfg);
    const jobs::ResilientResult res = second.resilientAcquireAt(0.0, rest);
    EXPECT_TRUE(res.resilience.resumed);
    EXPECT_EQ(res.resilience.groupsCompleted, 4u);
    EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
              jobs::digestOfTraceSet(clean.traces));
    EXPECT_EQ(res.estimate.total, clean.estimate.total);
    EXPECT_EQ(res.estimate.totalCi.halfWidth, clean.estimate.totalCi.halfWidth);
    EXPECT_EQ(res.estimate.singleBit, clean.estimate.singleBit);
    EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes + 4 * record);
  };
  resumeFrom("cut inside the third record",
             bytes.substr(0, kHeaderBytes + 2 * record + record / 2), 2);
  std::string flipped = bytes;
  flipped[kHeaderBytes + record + record / 2] ^= 0x40;
  resumeFrom("byte flipped inside the second record", flipped, 1);
  std::remove(path.c_str());
}

TEST(Checkpoint, BadHeaderLoadsAsAbsent) {
  const std::string path = tmpPath("lpa_ckpt_header.ckpt");
  const jobs::CheckpointHeader header{0xFEEDFACE12345678ULL, 3, 2};
  jobs::startCheckpoint(path, header);
  const std::string bytes = readBytes(path);
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  std::string whyNot = "unset";
  const auto empty = jobs::loadCheckpoint(path, &whyNot);
  ASSERT_TRUE(empty.has_value()) << whyNot;
  EXPECT_EQ(whyNot, "");
  EXPECT_EQ(empty->header, header);
  EXPECT_TRUE(empty->recordTraces.empty());
  EXPECT_EQ(empty->traces.size(), 0u);
  EXPECT_EQ(empty->endBytes, kHeaderBytes);

  std::string flipped = bytes;
  flipped[12] ^= 0x01;  // a fingerprint byte: the header checksum fails
  std::string oldFormat = bytes;
  oldFormat[7] = '1';
  const std::pair<const char*, std::string> bad[] = {
      {"cut inside the header", bytes.substr(0, kHeaderBytes - 5)},
      {"garbage after the magic", "LPACKPT2 this is not a checkpoint"},
      {"flipped header byte", flipped},
      {"LPACKPT1 file", oldFormat + std::string(64, '\0')},
  };
  for (const auto& [what, damaged] : bad) {
    SCOPED_TRACE(what);
    writeBytes(path, damaged);
    EXPECT_FALSE(jobs::loadCheckpoint(path, &whyNot));
    EXPECT_NE(whyNot, "");
  }

  // A run over an absent-loading file starts fresh and rewrites it.
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 32;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  EXPECT_FALSE(res.resilience.resumed);
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfTraceSet(plain.acquireAt(0.0)));
  const auto rewritten = jobs::loadCheckpoint(path, &whyNot);
  ASSERT_TRUE(rewritten.has_value()) << whyNot;
  EXPECT_EQ(rewritten->recordTraces.size(), 4u);
  std::remove(path.c_str());
}

// ------------------------------------------------------- resilient runner

TEST(ResilientAcquire, MatchesPlainAcquire) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet expected = plain.acquireAt(0.0);

  jobs::JobConfig job;
  job.groupTraces = 48;  // 128 traces -> groups of 48/48/32
  job.statsOpt = kFourFolds;
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(traceSetsEqual(res.traces, expected));
  EXPECT_EQ(res.resilience.stopReason, "completed");
  EXPECT_FALSE(res.resilience.truncated);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsTotal, 3u);
  EXPECT_EQ(res.resilience.groupsCompleted, 3u);
  EXPECT_EQ(res.resilience.retries, 0u);

  // The estimate is the streaming fold of exactly these traces.
  stats::StreamingLeakage stream(expected.numSamples(), kFourFolds);
  stream.addTraceSet(expected);
  EXPECT_EQ(res.estimate.total, stream.estimate().total);
}

TEST(ResilientAcquire, DrainStopAndResumeBitIdentical) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  // The uninterrupted checkpointed run: its estimate and lineage are what
  // every drained-and-resumed run must end with.
  jobs::JobConfig cleanJob;
  cleanJob.checkpointPath = tmpPath("lpa_resume_clean.ckpt");
  cleanJob.groupTraces = 32;
  cleanJob.statsOpt = kFourFolds;
  SboxExperiment cleanExp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult clean =
      cleanExp.resilientAcquireAt(0.0, cleanJob);
  ASSERT_EQ(jobs::digestOfTraceSet(clean.traces), expected);
  ASSERT_EQ(clean.resilience.lineage.size(), 4u);
  jobs::DigestAccumulator all;
  all.addTraceSet(clean.traces);
  EXPECT_EQ(clean.resilience.lineage.back(), "g4/4:" + all.hex());
  std::remove(cleanJob.checkpointPath.c_str());
  const std::uint64_t record = recordBytes(32, clean.traces.numSamples());

  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Auto};
  for (SimEngine firstEngine : engines) {
    for (std::uint32_t threads : {1u, 2u}) {
      const std::string path = tmpPath(
          "lpa_resume_" + std::to_string(static_cast<int>(firstEngine)) +
          "_" + std::to_string(threads) + ".ckpt");
      jobs::JobConfig job;
      job.checkpointPath = path;
      job.groupTraces = 32;  // 4 groups
      job.statsOpt = kFourFolds;
      job.stopAfterGroups = 2;

      ExperimentConfig cfg = ecfg;
      cfg.acquisition.engine = firstEngine;
      cfg.acquisition.numThreads = threads;
      SboxExperiment first(SboxStyle::Opt, cfg);
      const jobs::ResilientResult half = first.resilientAcquireAt(0.0, job);
      EXPECT_TRUE(half.resilience.truncated);
      EXPECT_EQ(half.resilience.stopReason, "drain");
      EXPECT_EQ(half.resilience.groupsCompleted, 2u);
      EXPECT_EQ(half.traces.size(), 64u);
      // Each commit appended one record of its own group: after two
      // commits the file is the header plus exactly two records.
      const auto cp = jobs::loadCheckpoint(path);
      ASSERT_TRUE(cp.has_value());
      EXPECT_EQ(cp->recordTraces.size(), 2u);
      EXPECT_EQ(cp->endBytes, kHeaderBytes + 2 * record);
      EXPECT_EQ(std::filesystem::file_size(path), cp->endBytes);

      // Resume under a *different* engine and thread count: the result
      // must still be bit-identical to the uninterrupted run.
      jobs::JobConfig rest = job;
      rest.stopAfterGroups = 0;
      ExperimentConfig cfg2 = ecfg;
      cfg2.acquisition.engine = firstEngine == SimEngine::Reference
                                    ? SimEngine::Auto
                                    : SimEngine::Reference;
      cfg2.acquisition.numThreads = threads == 1 ? 2 : 1;
      SboxExperiment second(SboxStyle::Opt, cfg2);
      const jobs::ResilientResult full = second.resilientAcquireAt(0.0, rest);
      EXPECT_TRUE(full.resilience.resumed);
      EXPECT_FALSE(full.resilience.truncated);
      EXPECT_EQ(full.resilience.stopReason, "completed");
      EXPECT_EQ(full.resilience.groupsCompleted, 4u);
      EXPECT_EQ(jobs::digestOfTraceSet(full.traces), expected)
          << "engine " << static_cast<int>(firstEngine) << " threads "
          << threads;
      // The re-folded estimate and the re-derived lineage are the
      // uninterrupted run's.
      EXPECT_EQ(full.estimate.total, clean.estimate.total);
      EXPECT_EQ(full.estimate.totalCi.halfWidth,
                clean.estimate.totalCi.halfWidth);
      EXPECT_EQ(full.estimate.singleBit, clean.estimate.singleBit);
      EXPECT_EQ(full.resilience.lineage, clean.resilience.lineage);
      EXPECT_EQ(std::filesystem::file_size(path), kHeaderBytes + 4 * record);
      std::remove(path.c_str());
    }
  }
}

TEST(ResilientAcquire, ForeignCheckpointIsIgnored) {
  ExperimentConfig ecfg = smallConfig();
  const std::string path = tmpPath("lpa_resume_foreign.ckpt");
  jobs::JobConfig job;
  job.checkpointPath = path;
  job.groupTraces = 32;
  job.stopAfterGroups = 2;
  SboxExperiment first(SboxStyle::Opt, ecfg);
  (void)first.resilientAcquireAt(0.0, job);

  // Same path, different seed: the checkpoint must not be adopted.
  ExperimentConfig other = ecfg;
  other.acquisition.seed = 0x1234;
  jobs::JobConfig job2 = job;
  job2.stopAfterGroups = 0;
  SboxExperiment second(SboxStyle::Opt, other);
  const jobs::ResilientResult res = second.resilientAcquireAt(0.0, job2);
  EXPECT_FALSE(res.resilience.resumed);
  EXPECT_EQ(res.resilience.groupsCompleted, 4u);

  SboxExperiment plain(SboxStyle::Opt, other);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfTraceSet(plain.acquireAt(0.0)));
  std::remove(path.c_str());
}

TEST(ResilientAcquire, FingerprintExcludesEngineAndThreads) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const Netlist& nl = exp.sbox().netlist();
  const DelayModel delays(nl, ecfg.delay);
  const PowerModel power(nl, ecfg.power);
  const EventSim sim(nl, delays, ecfg.sim);
  jobs::JobConfig job;

  AcquisitionConfig a = ecfg.acquisition;
  AcquisitionConfig b = a;
  b.engine = SimEngine::Reference;
  b.numThreads = 7;
  b.deadlineMs = 1234;
  b.trapBudget = 1;
  EXPECT_EQ(jobs::acquisitionFingerprint(exp.sbox(), sim, power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), sim, power, b, job));

  AcquisitionConfig c = a;
  c.seed ^= 1;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), sim, power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), sim, power, c, job));
  jobs::JobConfig job2;
  job2.groupTraces = job.groupTraces + 16;
  EXPECT_NE(jobs::acquisitionFingerprint(exp.sbox(), sim, power, a, job),
            jobs::acquisitionFingerprint(exp.sbox(), sim, power, a, job2));
}

// A checkpoint is adopted only under an equal fingerprint, so any change
// to what acquisitionFingerprint folds, or how, stops every existing
// checkpoint from resuming: these values must not move.
TEST(ResilientAcquire, FingerprintValuesArePinned) {
  const auto fingerprintOf = [](SboxStyle style, const ExperimentConfig& ecfg,
                                const jobs::JobConfig& job) {
    SboxExperiment exp(style, ecfg);
    const Netlist& nl = exp.sbox().netlist();
    const DelayModel delays(nl, ecfg.delay);
    const PowerModel power(nl, ecfg.power);
    const EventSim sim(nl, delays, ecfg.sim);
    return jobs::acquisitionFingerprint(exp.sbox(), sim, power,
                                        ecfg.acquisition, job);
  };
  jobs::JobConfig fixedJob;
  fixedJob.groupTraces = 48;
  EXPECT_EQ(fingerprintOf(SboxStyle::Opt, smallConfig(), fixedJob),
            0x6848eb99e9d5d108ULL);

  ExperimentConfig adaptive = rsmAdaptiveConfig(0.2);
  adaptive.acquisition.adaptive = true;
  jobs::JobConfig adaptiveJob;
  adaptiveJob.statsOpt = kFourFolds;
  EXPECT_EQ(fingerprintOf(SboxStyle::Rsm, adaptive, adaptiveJob),
            0x56245a04c3e49cd3ULL);
}

TEST(ResilientAcquire, DeadlineReturnsValidatedPartialReport) {
  ExperimentConfig ecfg = smallConfig();
  ecfg.acquisition.tracesPerClass = 32;  // 512 traces, 4 groups of 128
  ecfg.acquisition.deadlineMs = 500;
  jobs::JobConfig job;
  job.groupTraces = 128;
  job.statsOpt = kFourFolds;
  // Deterministic virtual clock: the deadline trips exactly after two
  // committed groups, never mid-group.
  job.elapsedMsOverride = [](std::uint64_t committed) {
    return committed >= 2 ? 1000.0 : 0.0;
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(res.resilience.truncated);
  EXPECT_EQ(res.resilience.stopReason, "deadline");
  EXPECT_EQ(res.resilience.groupsCompleted, 2u);
  EXPECT_EQ(res.traces.size(), 256u);

  // The partial prefix is the plain run's prefix.
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const TraceSet full = plain.acquireAt(0.0);
  for (std::size_t i = 0; i < res.traces.size(); ++i) {
    ASSERT_EQ(res.traces.label(i), full.label(i));
  }

  // Partial statistics are real: finite CIs from the committed prefix,
  // the streaming fold of exactly the returned traces.
  EXPECT_EQ(res.estimate.traces, 256u);
  EXPECT_TRUE(std::isfinite(res.estimate.totalCi.halfWidth));
  EXPECT_GT(res.estimate.total, 0.0);
  EXPECT_EQ(res.estimate.total, foldOf(res.traces, kFourFolds).total);

  // And the run report carrying both blocks validates against /3.
  obs::RunReport report("deadline-partial");
  report.setSeed(ecfg.acquisition.seed);
  report.setMetrics(obs::MetricsRegistry::global().snapshot());
  stats::fillStatistics(report, res.estimate,
                        res.resilience.stopReason.c_str());
  jobs::fillResilience(report, res.resilience);
  report.setDigest(std::string("fnv:") + "0");
  const obs::Json j = report.toJson();
  EXPECT_EQ(obs::RunReport::validate(j), "");
  EXPECT_EQ(j.find("resilience")->find("truncated")->asBool(), true);
  EXPECT_EQ(j.find("resilience")->find("stop_reason")->asString(),
            "deadline");
}

TEST(ResilientAcquire, TransientFailureRetriesBitIdentically) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.baseBackoffMs = 0;
  job.beforeGroupHook = [](std::uint64_t group, std::uint32_t attempt,
                           SimEngine) {
    if (group == 1 && attempt == 0) {
      throw std::runtime_error("transient worker failure");
    }
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
  EXPECT_EQ(res.resilience.retries, 1u);
  EXPECT_EQ(res.resilience.stopReason, "completed");
}

TEST(ResilientAcquire, RetryBudgetEscalatesWithGroupIdentity) {
  ExperimentConfig ecfg = smallConfig();
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.maxAttempts = 3;
  job.retry.baseBackoffMs = 0;
  job.beforeGroupHook = [](std::uint64_t group, std::uint32_t, SimEngine) {
    if (group == 1) throw std::runtime_error("permanent failure");
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  try {
    (void)exp.resilientAcquireAt(0.0, job);
    FAIL() << "expected WorkerError";
  } catch (const WorkerError& e) {
    EXPECT_EQ(e.index(), 1u);
    EXPECT_NE(std::string(e.what()).find("resilient group 1"),
              std::string::npos);
    // The root cause is nested and recoverable.
    bool sawCause = false;
    try {
      std::rethrow_if_nested(e);
    } catch (const std::runtime_error& cause) {
      sawCause =
          std::string(cause.what()).find("permanent failure") !=
          std::string::npos;
    }
    EXPECT_TRUE(sawCause);
  }

  // trapBudget 0: the very first failure escalates, no retries at all.
  jobs::JobConfig strict = job;
  ExperimentConfig tight = ecfg;
  tight.acquisition.trapBudget = 0;
  strict.beforeGroupHook = [](std::uint64_t, std::uint32_t attempt,
                              SimEngine) {
    if (attempt == 0) throw std::runtime_error("one-shot failure");
  };
  SboxExperiment exp2(SboxStyle::Opt, tight);
  EXPECT_THROW((void)exp2.resilientAcquireAt(0.0, strict), WorkerError);
}

TEST(ResilientAcquire, SpotCheckMismatchQuarantinesAndRepairs) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Auto;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.spotCheckEveryGroups = 1;  // sample every fast-engine group
  // Model a silently-wrong fast engine: corrupt one sample of every group
  // it produces (the hook sees which engine ran the group).
  job.perturbHook = [](TraceSet& traces, std::size_t groupBegin,
                       SimEngine ranWith) {
    if (ranWith == SimEngine::Reference) return;
    TraceSet corrupted(traces.numSamples());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      std::vector<double> samples(traces.trace(i),
                                  traces.trace(i) + traces.numSamples());
      if (i == groupBegin) samples[0] += 1.0;
      corrupted.add(traces.label(i), std::move(samples));
    }
    traces = std::move(corrupted);
  };
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  // Group 0's spot-check catches the corruption, quarantines the fast
  // engine, and commits the reference bits; every later group runs under
  // Reference, so the final digest matches the clean run exactly.
  EXPECT_TRUE(res.resilience.quarantined);
  ASSERT_EQ(res.resilience.events.size(), 1u);
  EXPECT_EQ(res.resilience.events[0].group, 0u);
  EXPECT_EQ(res.resilience.events[0].reason, "spot-check-mismatch");
  EXPECT_EQ(res.resilience.spotChecks, 1u);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
  // The repair rolled the corrupted group out of the estimator too.
  const stats::LeakageEstimate fold = foldOf(res.traces, job.statsOpt);
  EXPECT_EQ(res.estimate.total, fold.total);
  EXPECT_EQ(res.estimate.totalCi.halfWidth, fold.totalCi.halfWidth);
}

TEST(ResilientAcquire, RepeatedDivergenceQuarantinesEngine) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  ExperimentConfig cfg = ecfg;
  cfg.acquisition.engine = SimEngine::Auto;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.retry.maxAttempts = 4;
  job.retry.baseBackoffMs = 0;
  static_assert(jobs::kQuarantineAfterDivergences == 2);
  // A fast engine that reliably trips the watchdog: quarantine must kick
  // in after two divergences and finish the run under Reference.
  job.beforeGroupHook = [](std::uint64_t, std::uint32_t, SimEngine engine) {
    if (engine != SimEngine::Reference) throw SimDiverged(0, 0.0);
  };
  SboxExperiment exp(SboxStyle::Opt, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_TRUE(res.resilience.quarantined);
  ASSERT_EQ(res.resilience.events.size(), 1u);
  EXPECT_EQ(res.resilience.events[0].reason, "sim-diverged");
  EXPECT_EQ(res.resilience.retries, 2u);
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected);
}

TEST(ResilientAcquire, MidGroupFailureRetriesFromTheCommittedTraces) {
  // A progress sink that throws once, on its first call inside group 1:
  // the meter emits on its first step, so group 1 has already streamed one
  // trace into the result and the estimator. The retry must drop it and
  // re-fold, leaving the uninterrupted run's bits — in fixed and in
  // adaptive mode.
  struct Mode {
    const char* name;
    SboxStyle style;
    ExperimentConfig cfg;
    jobs::JobConfig job;
    std::uint64_t groupTraces;
  };
  Mode modes[] = {{"fixed", SboxStyle::Opt, smallConfig(), {}, 32},
                  {"adaptive", SboxStyle::Rsm, rsmAdaptiveConfig(1e-6), {},
                   128}};
  modes[0].job.groupTraces = 32;
  modes[1].cfg.acquisition.adaptive = true;
  for (Mode& mode : modes) {
    SCOPED_TRACE(mode.name);
    mode.job.statsOpt = kFourFolds;
    mode.job.retry.baseBackoffMs = 0;
    SboxExperiment clean(mode.style, mode.cfg);
    const jobs::ResilientResult expected =
        clean.resilientAcquireAt(0.0, mode.job);

    std::uint64_t failedAt = 0;
    ExperimentConfig cfg = mode.cfg;
    cfg.acquisition.progress = [&](const obs::ProgressUpdate& u) {
      if (failedAt == 0 && u.done > mode.groupTraces) {
        failedAt = u.done;
        throw std::runtime_error("progress sink failed");
      }
      return true;
    };
    SboxExperiment exp(mode.style, cfg);
    const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, mode.job);

    EXPECT_EQ(failedAt, mode.groupTraces + 1);
    EXPECT_EQ(res.resilience.retries, 1u);
    EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
              jobs::digestOfTraceSet(expected.traces));
    EXPECT_EQ(res.estimate.total, expected.estimate.total);
    EXPECT_EQ(res.estimate.totalCi.halfWidth,
              expected.estimate.totalCi.halfWidth);
    const stats::LeakageEstimate fold = foldOf(res.traces, kFourFolds);
    EXPECT_EQ(res.estimate.total, fold.total);
    EXPECT_EQ(res.estimate.totalCi.halfWidth, fold.totalCi.halfWidth);
  }
}

TEST(ResilientAcquire, MidGroupDeadlineDropsThePartialGroup) {
  ExperimentConfig ecfg = smallConfig();
  ecfg.acquisition.deadlineMs = 500;
  jobs::JobConfig job;
  job.groupTraces = 32;
  job.statsOpt = kFourFolds;
  // Virtual clock: the deadline passes on the second reading after two
  // committed groups — the first is the group-boundary check, the second
  // the progress update of group 2's first trace, so the deadline trips
  // inside group 2.
  int readingsInGroup2 = 0;
  job.elapsedMsOverride = [&](std::uint64_t committed) {
    return committed >= 2 && ++readingsInGroup2 >= 2 ? 1000.0 : 0.0;
  };
  SboxExperiment exp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  EXPECT_GE(readingsInGroup2, 2);
  EXPECT_TRUE(res.resilience.truncated);
  EXPECT_EQ(res.resilience.stopReason, "deadline");
  EXPECT_EQ(res.resilience.groupsCompleted, 2u);
  ASSERT_EQ(res.traces.size(), 64u);
  SboxExperiment plain(SboxStyle::Opt, smallConfig());
  EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
            jobs::digestOfRange(plain.acquireAt(0.0), 0, 64));
  const stats::LeakageEstimate fold = foldOf(res.traces, kFourFolds);
  EXPECT_EQ(res.estimate.total, fold.total);
  EXPECT_EQ(res.estimate.traces, 64u);
}

TEST(ResilientAcquire, FingerprintFoldsThePhysicalModel) {
  // A checkpoint drained under one delay, power or simulator setting is
  // not adopted by a run under another: that run starts fresh and gives
  // the bits of a clean run of its own model.
  ExperimentConfig base;
  base.acquisition.tracesPerClass = 8;  // 128 traces: 8 groups of 16
  base.acquisition.numThreads = 1;
  jobs::JobConfig job;
  job.groupTraces = 16;
  job.stopAfterGroups = 2;

  std::vector<std::pair<std::string, ExperimentConfig>> variants;
  variants.emplace_back("sim.kind", base);
  variants.back().second.sim.kind = DelayKind::Inertial;
  variants.emplace_back("delay.jitterSigma", base);
  variants.back().second.delay.jitterSigma = 0.10;
  variants.emplace_back("power.noiseSigma", base);
  variants.back().second.power.noiseSigma = 0.5;
  variants.emplace_back("sim.fullSwingFactor", base);
  variants.back().second.sim.fullSwingFactor = 1.0;

  const auto resumeUnder = [&](const std::string& name,
                               const ExperimentConfig& cfg, double months) {
    SCOPED_TRACE(name);
    jobs::JobConfig first = job;
    first.checkpointPath = tmpPath("lpa_model_" + name + ".ckpt");
    SboxExperiment drained(SboxStyle::Glut, base);
    const jobs::ResilientResult half = drained.resilientAcquireAt(0.0, first);
    ASSERT_EQ(half.resilience.groupsCompleted, 2u);

    jobs::JobConfig rest = first;
    rest.stopAfterGroups = 0;
    SboxExperiment other(SboxStyle::Glut, cfg);
    const jobs::ResilientResult res = other.resilientAcquireAt(months, rest);
    EXPECT_FALSE(res.resilience.resumed);
    EXPECT_EQ(res.resilience.groupsCompleted, 8u);
    SboxExperiment clean(SboxStyle::Glut, cfg);
    EXPECT_EQ(jobs::digestOfTraceSet(res.traces),
              jobs::digestOfTraceSet(clean.acquireAt(months)));
    std::remove(first.checkpointPath.c_str());
  };
  for (const auto& [name, cfg] : variants) resumeUnder(name, cfg, 0.0);
  // Aging rescales the delays and pulse energies, so ages never
  // cross-resume either.
  resumeUnder("age48", base, 48.0);
}

TEST(ResilientAcquire, AdaptiveAcquireAtBitsArePinned) {
  // adaptiveAcquireAt is the group loop with durability off. The traces,
  // estimate, batch count and stop reason of both stop paths are pinned:
  // a change to the loop must not move any adaptive result bit.
  struct Pin {
    double target;
    std::uint64_t digest;
    std::uint64_t totalBits;
    std::uint32_t batches;
    stats::AdaptiveStop stop;
  };
  const Pin pins[] = {
      {0.5, 0x9c7b4907d1370714ULL, 0x40acdbe7d71f4861ULL, 3,
       stats::AdaptiveStop::CiTarget},
      {1e-6, 0x1d89920d3eafd866ULL, 0x4099103688c9b491ULL, 4,
       stats::AdaptiveStop::MaxTraces},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.target);
    SboxExperiment exp(SboxStyle::Rsm, rsmAdaptiveConfig(pin.target));
    const stats::AdaptiveResult res = exp.adaptiveAcquireAt(0.0, kFourFolds);
    EXPECT_EQ(jobs::digestOfTraceSet(res.traces), pin.digest);
    EXPECT_EQ(bitsOf(res.estimate.total), pin.totalBits);
    EXPECT_EQ(res.batches, pin.batches);
    EXPECT_EQ(res.stop, pin.stop);
    EXPECT_EQ(res.traces.size(), 128u * pin.batches);
    EXPECT_EQ(res.history.size(), pin.batches);
  }
}

// ------------------------------------------------------- SIGKILL harness

TEST(KillHarness, SigkillMidRunResumesBitIdentically) {
  ExperimentConfig ecfg = smallConfig();
  SboxExperiment plain(SboxStyle::Opt, ecfg);
  const std::uint64_t expected =
      jobs::digestOfTraceSet(plain.acquireAt(0.0));

  // The uninterrupted checkpointed run, for the estimate and the lineage.
  jobs::JobConfig cleanJob;
  cleanJob.checkpointPath = tmpPath("lpa_kill_clean.ckpt");
  cleanJob.groupTraces = 32;
  SboxExperiment cleanExp(SboxStyle::Opt, ecfg);
  const jobs::ResilientResult clean =
      cleanExp.resilientAcquireAt(0.0, cleanJob);
  ASSERT_EQ(clean.resilience.lineage.size(), 4u);
  std::remove(cleanJob.checkpointPath.c_str());

  const SimEngine engines[] = {SimEngine::Reference, SimEngine::Auto};
  for (SimEngine engine : engines) {
    for (std::uint32_t threads : {1u, 2u}) {
      const std::string path = tmpPath(
          "lpa_kill_" + std::to_string(static_cast<int>(engine)) + "_" +
          std::to_string(threads) + ".ckpt");

      const pid_t child = fork();
      ASSERT_GE(child, 0);
      if (child == 0) {
        // Child: run with a hook that SIGKILLs the process the moment
        // group 2 starts — groups 0 and 1 are already durably
        // checkpointed, group 2 dies uncommitted.
        jobs::JobConfig job;
        job.checkpointPath = path;
        job.groupTraces = 32;
        job.beforeGroupHook = [](std::uint64_t group, std::uint32_t,
                                 SimEngine) {
          if (group == 2) ::raise(SIGKILL);
        };
        ExperimentConfig cfg = ecfg;
        cfg.acquisition.engine = engine;
        cfg.acquisition.numThreads = threads;
        try {
          SboxExperiment victim(SboxStyle::Opt, cfg);
          (void)victim.resilientAcquireAt(0.0, job);
        } catch (...) {
        }
        ::_exit(3);  // only reached if the SIGKILL never fired
      }

      int status = 0;
      ASSERT_EQ(::waitpid(child, &status, 0), child);
      ASSERT_TRUE(WIFSIGNALED(status))
          << "child exited with status " << status
          << " instead of dying by signal";
      ASSERT_EQ(WTERMSIG(status), SIGKILL);

      // Parent: resume from the orphaned checkpoint, and from a copy whose
      // last record is torn, and verify bit-identity with the
      // uninterrupted run.
      const std::string bytes = readBytes(path);
      const std::string torn = path + ".torn";
      writeBytes(torn, bytes.substr(0, bytes.size() - 7));
      for (const std::string& from : {path, torn}) {
        SCOPED_TRACE(from);
        jobs::JobConfig job;
        job.checkpointPath = from;
        job.groupTraces = 32;
        ExperimentConfig cfg = ecfg;
        cfg.acquisition.engine = engine;
        cfg.acquisition.numThreads = threads;
        SboxExperiment resumer(SboxStyle::Opt, cfg);
        const jobs::ResilientResult res =
            resumer.resilientAcquireAt(0.0, job);
        EXPECT_TRUE(res.resilience.resumed);
        EXPECT_EQ(res.resilience.groupsCompleted, 4u);
        EXPECT_EQ(jobs::digestOfTraceSet(res.traces), expected)
            << "engine " << static_cast<int>(engine) << " threads "
            << threads;
        EXPECT_EQ(res.estimate.total, clean.estimate.total);
        EXPECT_EQ(res.estimate.totalCi.halfWidth,
                  clean.estimate.totalCi.halfWidth);
        EXPECT_EQ(res.estimate.singleBit, clean.estimate.singleBit);
        EXPECT_EQ(res.resilience.lineage, clean.resilience.lineage);
        std::remove(from.c_str());
      }
    }
  }
}

}  // namespace
}  // namespace lpa
