// Tests for the observability layer (src/obs/): the zero-perturbation
// contract (bit-identical results with instrumentation on or off, at any
// thread count), metrics-registry thread safety, Chrome trace-event export
// well-formedness, and progress reporting / cooperative abort.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/leakage.h"
#include "fault/campaign.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace_span.h"
#include "trace/acquisition.h"

namespace lpa {
namespace {

void expectBitIdentical(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.numSamples(), b.numSamples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "trace " << i;
    for (std::uint32_t s = 0; s < a.numSamples(); ++s) {
      // EXPECT_EQ on doubles is exact — that is the contract.
      ASSERT_EQ(a.trace(i)[s], b.trace(i)[s])
          << "trace " << i << " sample " << s;
    }
  }
}

TraceSet acquireWith(bool observe, std::uint32_t threads,
                     bool withProgress, bool withSpans) {
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 2;  // 32 traces: fast but parallel
  cfg.acquisition.numThreads = threads;
  cfg.observe = observe;
  if (withProgress) {
    cfg.acquisition.progress = [](const obs::ProgressUpdate&) {
      return true;
    };
  }
  if (withSpans) obs::TraceCollector::global().enable();
  SboxExperiment exp(SboxStyle::Glut, cfg);
  TraceSet ts = exp.acquireAt(0.0);
  if (withSpans) obs::TraceCollector::global().disable();
  return ts;
}

// The tentpole contract: metrics attached, spans recorded, and a progress
// sink subscribed must not flip a single bit of the acquired traces or the
// derived leakage, at any worker-thread count.
TEST(ObsZeroPerturbation, TracesBitIdenticalObserveOnOff) {
  const std::uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  const TraceSet plain = acquireWith(false, 1, false, false);
  for (std::uint32_t threads : {1u, 2u, hw}) {
    const TraceSet instrumented = acquireWith(true, threads, true, true);
    expectBitIdentical(plain, instrumented);
  }
}

TEST(ObsZeroPerturbation, LeakageBitIdenticalObserveOnOff) {
  const TraceSet off = acquireWith(false, 2, false, false);
  const TraceSet on = acquireWith(true, 2, true, true);
  const SpectralAnalysis saOff(off, EstimatorMode::Debiased);
  const SpectralAnalysis saOn(on, EstimatorMode::Debiased);
  EXPECT_EQ(saOff.totalLeakagePower(), saOn.totalLeakagePower());
  EXPECT_EQ(saOff.totalSingleBitLeakage(), saOn.totalSingleBitLeakage());
  for (std::uint32_t u = 1; u < 16; ++u) {
    for (std::uint32_t t = 0; t < saOff.numSamples(); ++t) {
      ASSERT_EQ(saOff.coefficient(u, t), saOn.coefficient(u, t));
    }
  }
}

TEST(ObsZeroPerturbation, FaultCampaignIdenticalObserveOnOff) {
  const ExperimentConfig ecfg;
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel delays(sbox->netlist(), ecfg.delay);
  const PowerModel power(sbox->netlist(), ecfg.power);
  std::vector<FaultSpec> faults = stuckAtFaults(maskWireNets(*sbox));
  faults.resize(std::min<std::size_t>(faults.size(), 4));

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 1;
  cfg.sim = ecfg.sim;
  cfg.numThreads = 2;
  cfg.observe = true;
  const FaultCampaignResult on =
      runFaultCampaign(*sbox, delays, power, faults, cfg);
  cfg.observe = false;
  const FaultCampaignResult off =
      runFaultCampaign(*sbox, delays, power, faults, cfg);

  expectBitIdentical(on.baseline, off.baseline);
  ASSERT_EQ(on.reports.size(), off.reports.size());
  for (std::size_t j = 0; j < on.reports.size(); ++j) {
    EXPECT_EQ(on.reports[j].classification, off.reports[j].classification);
    EXPECT_EQ(on.reports[j].counts.maskedOut, off.reports[j].counts.maskedOut);
    EXPECT_EQ(on.reports[j].totalLeakage, off.reports[j].totalLeakage);
  }
}

TEST(MetricsRegistry, CountersGaugesHistogramsBasics) {
  obs::MetricsRegistry reg;
  obs::Counter c = reg.counter("c");
  c.add(3);
  c.increment();
  EXPECT_EQ(c.value(), 4u);
  // Same name -> same cell.
  EXPECT_EQ(reg.counter("c").value(), 4u);

  obs::Gauge g = reg.gauge("g");
  g.set(2.5);
  g.recordMax(1.0);  // no-op, smaller
  EXPECT_EQ(g.value(), 2.5);
  g.recordMax(7.0);
  EXPECT_EQ(g.value(), 7.0);

  // The snapshot carries counters and gauges; its JSON keeps the empty
  // histograms object of the run-report layout.
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counterOr("c", 0), 4u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 7.0);
  const obs::Json j = snap.toJson();
  ASSERT_NE(j.find("histograms"), nullptr);
  EXPECT_TRUE(j.find("histograms")->isObject());
  EXPECT_EQ(j.find("histograms")->size(), 0u);
}

TEST(MetricsRegistry, NullHandlesAreNoOps) {
  obs::Counter c;
  obs::Gauge g;
  c.add(5);
  g.set(1.0);
  g.recordMax(2.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
}

TEST(MetricsRegistry, ConcurrentRegistrationAndIncrement) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> pool;
  for (int w = 0; w < kThreads; ++w) {
    pool.emplace_back([&reg] {
      // Every thread registers the same names (get-or-create race) and
      // hammers the shared cells.
      obs::Counter c = reg.counter("shared.counter");
      obs::Gauge g = reg.gauge("shared.peak");
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.recordMax(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counterOr("shared.counter", 0), kThreads * kIters);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, kIters - 1.0);
}

TEST(EventSimMetrics, CountersMatchLocalStatsAndClonesAggregate) {
  obs::MetricsRegistry reg;
  ExperimentConfig cfg;
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel delays(sbox->netlist(), cfg.delay);
  EventSim sim(sbox->netlist(), delays, cfg.sim);
  sim.attachMetrics(&reg);

  Prng rng(11);
  sim.settle(sbox->encode(0, rng));
  for (int i = 0; i < 8; ++i) sim.run(sbox->encode(rng.nibble(), rng));
  const SimStats& direct = sim.stats();
  EXPECT_EQ(direct.runs, 8u);
  obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counterOr("sim.runs", 0), direct.runs);
  EXPECT_EQ(snap.counterOr("sim.events_processed", 0),
            direct.eventsProcessed);
  EXPECT_EQ(snap.counterOr("sim.transitions_committed", 0),
            direct.committedTransitions);
  EXPECT_GT(reg.gauge("sim.peak_queue_depth").value(), 0.0);

  // Clones inherit the attachment and fold into the SAME registry cells:
  // the aggregate keeps growing, the clone's local stats start at zero.
  EventSim clone = sim.clone();
  EXPECT_EQ(clone.stats().runs, 0u);
  Prng rng2(12);
  clone.settle(sbox->encode(0, rng2));
  for (int i = 0; i < 4; ++i) clone.run(sbox->encode(rng2.nibble(), rng2));
  EXPECT_EQ(clone.stats().runs, 4u);
  snap = reg.snapshot();
  EXPECT_EQ(snap.counterOr("sim.runs", 0), 12u);
  EXPECT_EQ(snap.counterOr("sim.events_processed", 0),
            direct.eventsProcessed + clone.stats().eventsProcessed);
}

TEST(TraceSpans, ChromeTraceJsonParsesWithMonotoneNonOverlappingTracks) {
  obs::TraceCollector collector;
  collector.enable();
  std::vector<std::thread> pool;
  for (int w = 0; w < 3; ++w) {
    pool.emplace_back([&collector, w] {
      collector.nameThisThreadTrack("test-worker-" + std::to_string(w));
      for (int i = 0; i < 5; ++i) {
        obs::Span s("span " + std::to_string(w) + "." + std::to_string(i),
                    &collector);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(collector.eventCount(), 15u);

  const obs::Json j = obs::Json::parse(collector.toJson().dump());
  const obs::Json* events = j.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 15 "X" spans + 3 "M" thread_name metadata events.
  ASSERT_EQ(events->elements().size(), 18u);

  std::map<double, std::vector<std::pair<double, double>>> perTrack;
  int metadata = 0;
  for (const obs::Json& e : events->elements()) {
    const std::string ph = e.find("ph")->asString();
    if (ph == "M") {
      EXPECT_EQ(e.find("name")->asString(), "thread_name");
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ASSERT_NE(e.find("name"), nullptr);
    const double ts = e.find("ts")->asNumber();
    const double dur = e.find("dur")->asNumber();
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    perTrack[e.find("tid")->asNumber()].emplace_back(ts, dur);
  }
  EXPECT_EQ(metadata, 3);
  ASSERT_EQ(perTrack.size(), 3u);
  for (auto& [tid, spans] : perTrack) {
    ASSERT_EQ(spans.size(), 5u);
    // Sequential per-thread spans: each begins at or after the previous
    // one's end (monotonic, non-overlapping per track).
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].first + spans[i - 1].second)
          << "track " << tid << " span " << i;
    }
  }

  collector.clear();
  EXPECT_EQ(collector.eventCount(), 0u);
}

TEST(TraceSpans, DisabledCollectorRecordsNothing) {
  obs::TraceCollector collector;  // starts disabled
  { obs::Span s("ignored", &collector); }
  collector.nameThisThreadTrack("ignored");
  EXPECT_EQ(collector.eventCount(), 0u);
  EXPECT_EQ(collector.toJson().find("traceEvents")->elements().size(), 0u);
}

TEST(Progress, MonotoneDoneAndForcedFinalUpdate) {
  std::vector<std::uint64_t> seen;
  obs::ProgressMeter meter(
      "test", 100,
      [&seen](const obs::ProgressUpdate& u) {
        EXPECT_EQ(u.label, "test");
        EXPECT_EQ(u.total, 100u);
        seen.push_back(u.done);
        return true;
      },
      /*minIntervalSec=*/0.0);
  for (int i = 0; i < 100; ++i) meter.step();
  meter.finish();
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GE(seen[i], seen[i - 1]);
  }
  EXPECT_EQ(seen.back(), 100u);
  EXPECT_FALSE(meter.abortRequested());
}

TEST(Progress, RateLimitSuppressesIntermediateUpdates) {
  std::atomic<int> calls{0};
  obs::ProgressMeter meter(
      "test", 1000,
      [&calls](const obs::ProgressUpdate&) {
        ++calls;
        return true;
      },
      /*minIntervalSec=*/3600.0);
  for (int i = 0; i < 999; ++i) meter.step();
  const int intermediate = calls.load();
  EXPECT_LE(intermediate, 1);  // at most the first
  meter.step();   // done == total forces an update
  meter.finish(); // idempotent
  EXPECT_GE(calls.load(), intermediate + 1);
}

TEST(Progress, SinkReturningFalseAbortsAcquisition) {
  // Abort on the very first callback (the meter's first step always emits),
  // so the abort lands while most of the 64 traces are still pending. The
  // reference engine steps the meter per trace; pin it so the test keeps
  // its per-trace granularity, since Auto serves every eligible call with
  // the batch engine (whose coarser abort is covered by the test below).
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 4;
  cfg.acquisition.numThreads = 2;
  cfg.acquisition.engine = SimEngine::Reference;
  cfg.acquisition.progress = [](const obs::ProgressUpdate&) { return false; };
  SboxExperiment exp(SboxStyle::Glut, cfg);
  try {
    exp.acquireAt(0.0);
    FAIL() << "expected ProgressAborted";
  } catch (const obs::ProgressAborted& e) {
    EXPECT_LT(e.done(), e.total());
    EXPECT_EQ(e.total(), 64u);
    EXPECT_NE(std::string(e.what()).find("acquire"), std::string::npos);
  }
}

TEST(Progress, SinkReturningFalseAbortsBatchAcquisition) {
  // The batch engine's work item is a 64-lane group, so a false-returning
  // sink aborts at group granularity: the abort is honored before the next
  // group starts and the payload is trace-denominated (done strictly below
  // total needs more than one group in flight — 256 traces = 4 groups).
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 16;
  cfg.acquisition.numThreads = 1;
  cfg.acquisition.engine = SimEngine::Auto;
  cfg.acquisition.progress = [](const obs::ProgressUpdate&) { return false; };
  SboxExperiment exp(SboxStyle::Glut, cfg);
  try {
    exp.acquireAt(0.0);
    FAIL() << "expected ProgressAborted";
  } catch (const obs::ProgressAborted& e) {
    EXPECT_LT(e.done(), e.total());
    EXPECT_EQ(e.total(), 256u);
    EXPECT_NE(std::string(e.what()).find("acquire"), std::string::npos);
  }
}

TEST(Progress, AbortMidStreamCountsDeliveredTraces) {
  // Several workers, items finishing out of order: the abort still lands
  // between delivered items, and the payload counts exactly the traces the
  // consumer received — trace-denominated on both engines (the batch
  // engine delivers whole 64-trace groups, so the first one completes).
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
    for (std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      EventSim sim(sbox->netlist(), dm);
      AcquisitionConfig cfg;
      cfg.tracesPerClass = 16;
      cfg.numThreads = threads;
      cfg.engine = engine;
      cfg.progress = [](const obs::ProgressUpdate&) { return false; };
      std::uint64_t received = 0;
      try {
        acquireRange(*sbox, sim, pm, cfg, 0, 16u * cfg.tracesPerClass,
                     [&](std::uint8_t, const double*) { ++received; });
        FAIL() << "expected ProgressAborted";
      } catch (const obs::ProgressAborted& e) {
        EXPECT_EQ(e.total(), 256u);
        EXPECT_EQ(e.done(), received);
        EXPECT_GE(e.done(), 1u);
        EXPECT_LT(e.done(), e.total());
        if (engine == SimEngine::Auto) {
          EXPECT_EQ(e.done(), 64u);
        }
      }
    }
  }
}

TEST(Progress, StderrLineSinkNeverAborts) {
  const obs::ProgressFn sink = obs::stderrProgressLine();
  obs::ProgressUpdate u;
  u.label = "x";
  u.done = 1;
  u.total = 2;
  u.elapsedSec = 0.5;
  u.etaSec = 0.5;
  u.ratePerSec = 2.0;
  EXPECT_TRUE(sink(u));
  u.done = 2;
  EXPECT_TRUE(sink(u));
}

TEST(Progress, RateAndEtaDerivedFromThroughput) {
  // The meter publishes done/elapsed as ratePerSec and derives the ETA
  // from it: eta ~= remaining / rate. The final (forced) update carries
  // the total wall time with eta 0.
  std::vector<obs::ProgressUpdate> seen;
  obs::ProgressMeter meter(
      "rate", 10,
      [&seen](const obs::ProgressUpdate& u) {
        seen.push_back(u);
        return true;
      },
      /*minIntervalSec=*/0.0);
  for (int i = 0; i < 10; ++i) meter.step();
  meter.finish();
  ASSERT_FALSE(seen.empty());
  for (const obs::ProgressUpdate& u : seen) {
    EXPECT_GE(u.ratePerSec, 0.0);
    if (u.ratePerSec > 0.0 && u.done < u.total) {
      // ETA consistency with the published rate.
      const double expect =
          static_cast<double>(u.total - u.done) / u.ratePerSec;
      EXPECT_NEAR(u.etaSec, expect, 1e-9 + expect * 1e-9);
    }
  }
  const obs::ProgressUpdate& last = seen.back();
  EXPECT_EQ(last.done, 10u);
  EXPECT_GT(last.ratePerSec, 0.0);
  EXPECT_GE(last.elapsedSec, 0.0);
  EXPECT_EQ(last.etaSec, 0.0);
}

}  // namespace
}  // namespace lpa
