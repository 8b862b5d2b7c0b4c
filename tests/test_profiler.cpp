// Tests for the cost-attribution profiler (src/obs/profiler.h, DESIGN.md
// §13) and its supporting plumbing: the zero-perturbation contract across
// both acquisition engines at multiple thread counts, lane-occupancy histogram
// invariants under run-stride sampling, the perf_event_open → rusage
// fallback, heartbeat file schema, the /4 run-report profile block, Chrome
// trace flow events, and EWMA throughput blending.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "fault/campaign.h"
#include "fault/fault_spec.h"
#include "obs/heartbeat.h"
#include "obs/hw_counters.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/run_report.h"
#include "obs/trace_span.h"
#include "sim/compiled_design.h"
#include "trace/acquisition.h"

namespace lpa {
namespace {

void expectBitIdentical(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.numSamples(), b.numSamples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "trace " << i;
    for (std::uint32_t s = 0; s < a.numSamples(); ++s) {
      // Exact double comparison — that is the contract.
      ASSERT_EQ(a.trace(i)[s], b.trace(i)[s])
          << "trace " << i << " sample " << s;
    }
  }
}

TraceSet acquireWith(SimEngine engine, std::uint32_t threads,
                     obs::Profiler* profiler,
                     std::uint32_t tracesPerClass = 4) {
  ExperimentConfig cfg;
  // 4/class = 64 traces: one full batch-engine lane group, still fast for
  // the reference engine.
  cfg.acquisition.tracesPerClass = tracesPerClass;
  cfg.acquisition.numThreads = threads;
  cfg.acquisition.engine = engine;
  SboxExperiment exp(SboxStyle::Glut, cfg);
  // The experiment-level attach wires every layer: the prototype EventSim
  // (served engine + worker clones) and the power model's reference
  // sampling path, which tallies the pulses for the EventSim engine.
  if (profiler != nullptr) exp.attachProfiler(profiler);
  return exp.acquireAt(0.0);
}

// The tentpole contract: a Profiler is a pure sink. Attaching one to any
// engine at any worker-thread count must not flip a single bit of the
// acquired traces — while the profiler still has to come back non-empty,
// so the test cannot pass vacuously with the hooks detached.
TEST(ProfilerZeroPerturbation, TracesBitIdenticalAllEnginesAndThreads) {
  for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
    const TraceSet plain = acquireWith(engine, 1, nullptr);
    for (std::uint32_t threads : {1u, 2u}) {
      obs::Profiler profiler;
      const TraceSet profiled = acquireWith(engine, threads, &profiler);
      expectBitIdentical(plain, profiled);
      // The profiler actually collected: runs counted, events tallied.
      // (The batch engine samples every kRunSampleStride-th run but the
      // first run is always sampled, so tallies are non-zero here too.)
      EXPECT_GT(profiler.runs(), 0u) << "engine " << static_cast<int>(engine);
      EXPECT_GT(profiler.totalScheduled(), 0u)
          << "engine " << static_cast<int>(engine);
      EXPECT_GT(profiler.numNets(), 0u);
      if (engine == SimEngine::Auto) {
        EXPECT_GT(profiler.waves(), 0u);
      } else {
        EXPECT_GT(profiler.totalPulses(), 0u);
      }
    }
  }
}

TEST(ProfilerZeroPerturbation, EngineChoiceDoesNotLeakIntoOtherEngines) {
  // Unprofiled reference vs profiled batch on one and two workers: the
  // cross-engine determinism contract survives profiling.
  const TraceSet reference = acquireWith(SimEngine::Reference, 1, nullptr);
  obs::Profiler p1, p2;
  expectBitIdentical(reference, acquireWith(SimEngine::Auto, 2, &p1));
  expectBitIdentical(reference, acquireWith(SimEngine::Auto, 1, &p2));
}

// Run-stride sampling invariants: every sampled wave contributes exactly
// one popped-lanes bin and one committed-lanes bin (the 0-commit bin
// included), and the flush hands bins and wave count over unscaled — so
// the histograms must sum exactly to the reported wave count, and the
// means must stay inside the lane range. On the transport default
// without a watchdog the batch engine drops no-ops at push, so every
// popped lane commits and the two means are equal.
TEST(ProfilerOccupancy, HistogramsSumToWavesUnderRunStride) {
  obs::Profiler profiler;
  // 16/class = 256 traces = 4 lane groups: multiple batch runs, so the
  // stride counter actually skips runs.
  acquireWith(SimEngine::Auto, 1, &profiler, 16);
  ASSERT_GT(profiler.waves(), 0u);

  const double popped = profiler.meanPoppedLanes();
  EXPECT_GT(popped, 0.0);
  EXPECT_LE(popped, 64.0);
  EXPECT_EQ(profiler.meanCommittedLanes(), popped);

  const obs::Json j = profiler.toJson();
  const obs::Json* occ = j.find("lane_occupancy");
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(occ->find("run_sample_stride")->asNumber(),
            static_cast<double>(obs::Profiler::kRunSampleStride));
  const double waves = occ->find("waves")->asNumber();
  EXPECT_EQ(waves, static_cast<double>(profiler.waves()));
  for (const char* hist : {"popped_hist", "committed_hist"}) {
    const obs::Json* bins = occ->find(hist);
    ASSERT_NE(bins, nullptr) << hist;
    double sum = 0.0;
    for (const obs::Json& b : bins->elements()) {
      const double lanes = b.find("lanes")->asNumber();
      EXPECT_GE(lanes, 0.0);
      EXPECT_LE(lanes, 64.0);
      sum += b.find("count")->asNumber();
    }
    EXPECT_EQ(sum, waves) << hist;
  }

  // The timeline covers the same sampled runs; pops across windows can
  // exceed waves (several events pop per wave) but must be present.
  const obs::Json* tl = j.find("queue_depth_timeline");
  ASSERT_NE(tl, nullptr);
  EXPECT_GT(tl->find("window_ps")->asNumber(), 0.0);
  ASSERT_NE(tl->find("windows"), nullptr);
  EXPECT_GT(tl->find("windows")->elements().size(), 0u);
}

// A call of one lane group profiles that group and reports its tallies as
// they are: the profile's wave count is the engine's own.
TEST(ProfilerOccupancy, OneGroupCallReportsTheWavesItRan) {
  const ExperimentConfig ecfg;
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel delays(sbox->netlist(), ecfg.delay);
  const PowerModel power(sbox->netlist(), ecfg.power);
  EventSim sim(sbox->netlist(), delays, ecfg.sim);
  obs::MetricsRegistry reg;
  sim.attachMetrics(&reg);
  obs::Profiler profiler;
  sim.attachProfiler(&profiler);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;  // 64 traces: one lane group
  cfg.numThreads = 1;
  cfg.engine = SimEngine::Auto;
  acquire(*sbox, sim, power, cfg);
  const std::uint64_t waves = reg.counter("sim.batch.waves").value();
  ASSERT_GT(waves, 0u);
  EXPECT_EQ(profiler.waves(), waves);
  EXPECT_EQ(profiler.runs(), 1u);
  EXPECT_EQ(profiler.profiledRuns(), 1u);
  const obs::Json j = profiler.toJson();
  EXPECT_EQ(j.find("lane_occupancy")->find("waves")->asNumber(),
            static_cast<double>(waves));
  EXPECT_EQ(j.find("profiled_runs")->asNumber(), 1.0);
}

/// A simulator with its own metrics registry and profiler attached.
struct AttachedSim {
  AttachedSim(const Netlist& nl, const DelayModel& dm, SimOptions opts = {})
      : sim(nl, dm, opts) {
    sim.attachMetrics(&reg);
    sim.attachProfiler(&profiler);
  }
  std::uint64_t count(const char* name) { return reg.counter(name).value(); }

  obs::MetricsRegistry reg;
  obs::Profiler profiler;
  EventSim sim;
};

// A profiler attached to the prototype EventSim alone reaches every engine
// that serves a call, as its metrics registry does: the batch engine
// acquisition builds, the reference workers cloned from the prototype, and
// the reference clones a classified call re-runs a lane group on when one
// of its lanes trips the watchdog.
TEST(ProfilerAttachment, SimulatorAttachmentReachesEveryEngine) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;  // 64 traces: one lane group on one worker
  cfg.numThreads = 1;

  AttachedSim batch(sbox->netlist(), dm);
  acquire(*sbox, batch.sim, pm, cfg);
  ASSERT_GT(batch.count("sim.batch.waves"), 0u);
  EXPECT_EQ(batch.profiler.waves(), batch.count("sim.batch.waves"));
  EXPECT_EQ(batch.profiler.runs(), batch.count("sim.batch.batches"));

  AcquisitionConfig twoReferenceWorkers = cfg;
  twoReferenceWorkers.engine = SimEngine::Reference;
  twoReferenceWorkers.numThreads = 2;
  AttachedSim reference(sbox->netlist(), dm);
  acquire(*sbox, reference.sim, pm, twoReferenceWorkers);
  ASSERT_GT(reference.count("sim.runs"), 0u);
  EXPECT_EQ(reference.profiler.runs(), reference.count("sim.runs"));

  // A mask-wire stuck-at under a watchdog budget at the fault-free mean
  // run: the lane group trips and re-runs on a reference clone.
  SimOptions budget;
  budget.maxEvents = reference.count("sim.events_processed") /
                     reference.count("sim.runs");
  const FaultSpec stuck = stuckAtFaults(maskWireNets(*sbox))[0];
  const FaultedDesign design = FaultInjector(sbox->netlist(), dm).apply(stuck);
  const CompiledDesign faultFree(sbox->netlist(), dm, pm);
  AttachedSim classified(design.netlist, design.delays, budget);
  const ClassifiedAcquisition run =
      acquireClassified(*sbox, faultFree, classified.sim, pm, cfg,
                        [](std::uint8_t, const double*) {});
  ASSERT_GT(run.counts.diverged, 0u);
  ASSERT_GT(classified.count("sim.batch.batches"), 0u);
  ASSERT_GT(classified.count("sim.runs"), 0u);
  EXPECT_EQ(classified.profiler.runs(), classified.count("sim.batch.batches") +
                                            classified.count("sim.runs"));
}

// Which batch runs are profiled is keyed on the lane group's index in the
// call, not on which worker clone runs it: two identical 4-thread
// acquisitions sample the same groups, so their wave counts and occupancy
// histograms agree exactly.
TEST(ProfilerOccupancy, SampledGroupsDoNotDependOnWorkerScheduling) {
  obs::Profiler first, second;
  // 64/class = 1024 traces = 16 lane groups over 4 workers.
  acquireWith(SimEngine::Auto, 4, &first, 64);
  acquireWith(SimEngine::Auto, 4, &second, 64);
  ASSERT_GT(first.waves(), 0u);
  EXPECT_EQ(first.waves(), second.waves());
  // Per-net tallies reach the profiler once per worker at the call's end;
  // the totals are the same whichever worker ran which group.
  EXPECT_GT(first.totalScheduled(), 0u);
  EXPECT_EQ(first.totalScheduled(), second.totalScheduled());
  EXPECT_EQ(first.totalPulses(), second.totalPulses());
  const obs::Json a = *first.toJson().find("lane_occupancy");
  const obs::Json b = *second.toJson().find("lane_occupancy");
  for (const char* hist : {"popped_hist", "committed_hist"}) {
    EXPECT_EQ(a.find(hist)->dump(), b.find(hist)->dump()) << hist;
  }
}

// An armed watchdog that never trips keeps the traces (the engines'
// contract) but queues the transport no-ops and cancels them at pop, so
// fewer lanes commit than pop.
TEST(ProfilerOccupancy, ArmedWatchdogCommitsFewerLanesThanItPops) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 16;
  cfg.acquisition.numThreads = 1;
  cfg.acquisition.engine = SimEngine::Auto;
  cfg.sim.maxEvents = std::uint64_t(1) << 40;
  SboxExperiment exp(SboxStyle::Glut, cfg);
  obs::Profiler profiler;
  exp.attachProfiler(&profiler);
  expectBitIdentical(acquireWith(SimEngine::Auto, 1, nullptr, 16),
                     exp.acquireAt(0.0));
  ASSERT_GT(profiler.waves(), 0u);
  EXPECT_GT(profiler.meanCommittedLanes(), 0.0);
  EXPECT_LT(profiler.meanCommittedLanes(), profiler.meanPoppedLanes());
}

TEST(HwCountersTest, ForcedRusageFallback) {
  ::setenv("LPA_PROFILE_FORCE_RUSAGE", "1", 1);
  obs::HwCounters hw;
  ::unsetenv("LPA_PROFILE_FORCE_RUSAGE");
  EXPECT_FALSE(hw.usingPerfEvents());
  hw.start();
  // Some measurable work so the deltas are not all zero.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  const obs::HwSample sample = hw.stop();
  EXPECT_EQ(sample.source, "rusage");
  bool sawWall = false;
  for (const auto& [name, value] : sample.values) {
    if (name == "wall_ns") {
      sawWall = true;
      EXPECT_GE(value, 0.0);
    }
  }
  EXPECT_TRUE(sawWall);
}

TEST(HwCountersTest, DefaultPathDegradesGracefully) {
  // Containers routinely deny perf_event_open; either source is fine, but
  // the sample must always materialize with a wall_ns key and never throw.
  obs::HwCounters hw;
  hw.start();
  const obs::HwSample sample = hw.stop();
  if (hw.usingPerfEvents()) {
    EXPECT_EQ(sample.source, "perf_event");
  } else {
    EXPECT_EQ(sample.source, "rusage");
  }
  const bool sawWall =
      std::any_of(sample.values.begin(), sample.values.end(),
                  [](const auto& kv) { return kv.first == "wall_ns"; });
  EXPECT_TRUE(sawWall);
}

TEST(HeartbeatFile, WritesSchemaPhaseAndFinalStatus) {
  const std::string path = ::testing::TempDir() + "lpa_heartbeat_test.json";
  std::remove(path.c_str());
  {
    obs::Heartbeat hb(path, "hbtest", /*minIntervalSec=*/0.0);
    hb.beat("acquire", 5, 10, 2.0, 2.5);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "heartbeat file not written";
    std::stringstream ss;
    ss << in.rdbuf();
    const obs::Json j = obs::Json::parse(ss.str());
    EXPECT_EQ(j.find("schema")->asString(), "lpa-heartbeat/2");
    EXPECT_EQ(j.find("schema")->asString(), obs::Heartbeat::schemaId());
    EXPECT_EQ(j.find("name")->asString(), "hbtest");
    EXPECT_EQ(j.find("status")->asString(), "running");
    EXPECT_EQ(j.find("phase")->asString(), "acquire");
    EXPECT_EQ(j.find("done")->asNumber(), 5.0);
    EXPECT_EQ(j.find("total")->asNumber(), 10.0);
    EXPECT_EQ(j.find("rate_per_sec")->asNumber(), 2.0);
    EXPECT_GT(j.find("pid")->asNumber(), 0.0);
    hb.finish("completed");
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::Json j = obs::Json::parse(ss.str());
  EXPECT_EQ(j.find("status")->asString(), "completed");
  EXPECT_EQ(j.find("phase")->asString(), "acquire");
  EXPECT_EQ(j.find("done")->asNumber(), 5.0);
  std::remove(path.c_str());
}

TEST(HeartbeatFile, RateLimitSuppressesIntermediateBeats) {
  const std::string path = ::testing::TempDir() + "lpa_heartbeat_rl.json";
  std::remove(path.c_str());
  obs::Heartbeat hb(path, "rl", /*minIntervalSec=*/3600.0);
  hb.beat("p", 1, 4, 0.0, -1.0);  // first beat always writes
  hb.beat("p", 2, 4, 0.0, -1.0);  // suppressed by the interval
  {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(obs::Json::parse(ss.str()).find("done")->asNumber(), 1.0);
  }
  hb.finish("completed");  // finish always writes, with the last progress
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::Json j = obs::Json::parse(ss.str());
  EXPECT_EQ(j.find("status")->asString(), "completed");
  EXPECT_EQ(j.find("done")->asNumber(), 2.0);
  std::remove(path.c_str());
}

TEST(RunReportProfile, ProfileBlockRoundTripsAndValidates) {
  obs::Profiler profiler;
  profiler.ensureNets(4);
  profiler.noteNetLabel(0, "XOR2_X1");
  profiler.addNetEvents(0, 10, 5, 5, 1);
  profiler.addNetPulses(0, 5);
  profiler.addNetTimeNs(0, 1234);
  profiler.noteRun();
  profiler.recordArena("batch", 4096);

  obs::RunReport report("profiler-test");
  obs::MetricsRegistry reg;
  report.setMetrics(reg.snapshot());
  report.addPhase("acquire", 1.0, 1.0);
  report.setDigest(0.5);
  report.setProfile(profiler.toJson());
  const obs::Json j = report.toJson();
  EXPECT_EQ(obs::RunReport::validate(j), "");
  EXPECT_EQ(j.find("schema")->asString(), "lpa-run-report/4");

  const obs::Json* prof = j.find("profile");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->find("schema")->asString(), obs::Profiler::schemaId());
  EXPECT_EQ(prof->find("runs")->asNumber(), 1.0);
  const obs::Json* rows = prof->find("nets")->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->elements().size(), 1u);  // only the touched net
  const obs::Json& row = rows->elements()[0];
  EXPECT_EQ(row.find("label")->asString(), "XOR2_X1");
  EXPECT_EQ(row.find("scheduled")->asNumber(), 10.0);
  EXPECT_EQ(row.find("cancelled")->asNumber(), 5.0);
  EXPECT_EQ(row.find("filtered")->asNumber(), 1.0);
  EXPECT_EQ(row.find("wall_time_ns")->asNumber(), 1234.0);
  EXPECT_EQ(prof->find("arenas")->find("batch")->asNumber(), 4096.0);

  // An unprofiled /4 report keeps an empty block and still validates.
  obs::RunReport bare("bare");
  bare.setMetrics(reg.snapshot());
  bare.addPhase("p", 0.0, 0.0);
  EXPECT_EQ(obs::RunReport::validate(bare.toJson()), "");
}

TEST(RunReportProfile, ValidateRejectsMalformedProfile) {
  obs::RunReport report("neg");
  obs::MetricsRegistry reg;
  report.setMetrics(reg.snapshot());
  report.addPhase("p", 0.0, 0.0);
  const obs::Json good = report.toJson();
  ASSERT_EQ(obs::RunReport::validate(good), "");

  obs::Json missing = obs::Json::object();
  for (const auto& [k, v] : good.items()) {
    if (k != "profile") missing[k] = v;
  }
  EXPECT_NE(obs::RunReport::validate(missing), "");

  obs::Json notObject = good;
  notObject["profile"] = obs::Json(1.0);
  EXPECT_NE(obs::RunReport::validate(notObject), "");

  obs::Json negRuns = good;
  negRuns["profile"]["runs"] = obs::Json(-1.0);
  EXPECT_NE(obs::RunReport::validate(negRuns), "");

  obs::Json badRows = good;
  badRows["profile"]["nets"] = obs::Json::object();
  badRows["profile"]["nets"]["rows"] = obs::Json("nope");
  EXPECT_NE(obs::RunReport::validate(badRows), "");

  obs::Json badOcc = good;
  badOcc["profile"]["lane_occupancy"] = obs::Json::object();
  badOcc["profile"]["lane_occupancy"]["mean_popped"] = obs::Json(-2.0);
  EXPECT_NE(obs::RunReport::validate(badOcc), "");

  obs::Json badHw = good;
  badHw["profile"]["hw_counters"] = obs::Json::object();
  EXPECT_NE(obs::RunReport::validate(badHw), "");

  // setProfile refuses non-objects outright.
  EXPECT_THROW(report.setProfile(obs::Json(3.0)), std::invalid_argument);
}

TEST(TraceSpans, FlowEventsLinkStartAndFinishById) {
  obs::TraceCollector collector;
  collector.enable();
  collector.recordFlow("resume g3/8", 10.0, 0xABCDu, /*start=*/true);
  collector.recordFlow("resume g3/8", 20.0, 0xABCDu, /*start=*/false);
  EXPECT_EQ(collector.eventCount(), 2u);

  const obs::Json j = collector.toJson();
  const obs::Json* events = j.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements().size(), 2u);
  std::string startId, finishId;
  for (const obs::Json& e : events->elements()) {
    EXPECT_EQ(e.find("cat")->asString(), "lpa-flow");
    EXPECT_EQ(e.find("name")->asString(), "resume g3/8");
    const std::string ph = e.find("ph")->asString();
    ASSERT_TRUE(ph == "s" || ph == "f") << ph;
    if (ph == "s") {
      startId = e.find("id")->asString();
      EXPECT_EQ(e.find("ts")->asNumber(), 10.0);
    } else {
      finishId = e.find("id")->asString();
      EXPECT_EQ(e.find("ts")->asNumber(), 20.0);
    }
  }
  // Same id on both halves is what draws the arrow; hex-rendered so it
  // greps against the checkpoint lineage digests.
  EXPECT_EQ(startId, finishId);
  EXPECT_EQ(startId, "0x000000000000abcd");
}

TEST(TraceSpans, DisabledCollectorIgnoresFlowEvents) {
  obs::TraceCollector collector;  // starts disabled
  collector.recordFlow("ignored", 0.0, 1, true);
  EXPECT_EQ(collector.eventCount(), 0u);
}

TEST(Progress, EwmaBlendedRateSeedsBlendsAndConverges) {
  // No prior estimate: seed with the instantaneous rate.
  EXPECT_EQ(obs::ewmaBlendedRate(-1.0, 5.0, 1.0, 5.0), 5.0);
  // Zero elapsed interval: alpha = 0, the previous estimate survives.
  EXPECT_EQ(obs::ewmaBlendedRate(2.0, 100.0, 0.0, 5.0), 2.0);
  // One blending step: prev + (1 - exp(-dt/tau)) * (inst - prev), exactly.
  const double blended = obs::ewmaBlendedRate(2.0, 10.0, 1.0, 5.0);
  const double alpha = 1.0 - std::exp(-1.0 / 5.0);
  EXPECT_DOUBLE_EQ(blended, 2.0 + alpha * 8.0);
  EXPECT_GT(blended, 2.0);
  EXPECT_LT(blended, 10.0);
  // A long interval forgets the past: the estimate converges to inst.
  EXPECT_NEAR(obs::ewmaBlendedRate(2.0, 10.0, 1e6, 5.0), 10.0, 1e-9);
  // Repeated short intervals at a steady pace converge too.
  double rate = -1.0;
  for (int i = 0; i < 200; ++i) {
    rate = obs::ewmaBlendedRate(rate, 7.0, 0.25, 5.0);
  }
  EXPECT_NEAR(rate, 7.0, 1e-6);
}

TEST(ProfilerReset, ClearsTalliesKeepsSizing) {
  obs::Profiler profiler;
  profiler.ensureNets(8);
  profiler.noteNetLabel(2, "AND2_X1");
  profiler.addNetEvents(2, 3, 2, 1, 0);
  profiler.noteRun();
  ASSERT_EQ(profiler.runs(), 1u);
  profiler.reset();
  EXPECT_EQ(profiler.runs(), 0u);
  EXPECT_EQ(profiler.totalScheduled(), 0u);
  EXPECT_EQ(profiler.numNets(), 8u);  // sizing survives
  // Labels survive too: a fresh tally on the same net keeps its name.
  profiler.addNetEvents(2, 1, 1, 0, 0);
  const obs::Json report = profiler.toJson();
  const obs::Json* rows = report.find("nets")->find("rows");
  ASSERT_EQ(rows->elements().size(), 1u);
  EXPECT_EQ(rows->elements()[0].find("label")->asString(), "AND2_X1");
}

}  // namespace
}  // namespace lpa
