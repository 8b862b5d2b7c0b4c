// Bit-identity suite for the compiled scalar engine and acquisition's
// engine selection.
//
// CompiledSim (sim/compiled_sim.h) promises results bit-identical to the
// reference EventSim on the same design: same transitions, same settled
// states, same fused traces, same instrumentation tallies, same divergence
// behaviour. These tests pin the contract down across every implementation
// style, both delay kinds and fresh and aged devices. The acquisition
// tests pin down engine selection: Auto runs the batch engine on every
// eligible design at any call size, fault overlays that keep index order
// included, falls back to the reference engine on a forward bridge, and
// matches the reference bit for bit at every thread count.

#include "sim/compiled_sim.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/experiment.h"
#include "fault/fault_spec.h"
#include "fault_fixtures.h"
#include "obs/metrics.h"
#include "trace/acquisition.h"
#include "trace/prng.h"
#include "trace/sharded_pool.h"

namespace lpa {
namespace {

void expectSameStats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.committedTransitions, b.committedTransitions);
  EXPECT_EQ(a.cancelledEvents, b.cancelledEvents);
  EXPECT_EQ(a.inertialFiltered, b.inertialFiltered);
  EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
  EXPECT_EQ(a.watchdogMinHeadroom, b.watchdogMinHeadroom);
}

void expectSameTransitions(const std::vector<Transition>& a,
                           const std::vector<Transition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on the doubles, not NEAR: the contract is bit-identity.
    EXPECT_EQ(a[i].timePs, b[i].timePs) << "transition " << i;
    EXPECT_EQ(a[i].net, b[i].net) << "transition " << i;
    EXPECT_EQ(a[i].newValue, b[i].newValue) << "transition " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "transition " << i;
  }
}

void expectIdenticalTraceSets(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.numSamples(), b.numSamples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "trace " << i;
    for (std::uint32_t s = 0; s < a.numSamples(); ++s) {
      ASSERT_EQ(a.trace(i)[s], b.trace(i)[s])
          << "trace " << i << " sample " << s;
    }
  }
}

/// Drives the reference and compiled engines through the same stimulus
/// sequence and asserts transition-level, state-level, and stats-level
/// identity.
void expectEngineIdentity(const MaskedSbox& sbox, const DelayModel& dm,
                          const PowerModel& pm, const SimOptions& opts,
                          std::uint64_t seed, int steps) {
  EventSim ref(sbox.netlist(), dm, opts);
  const CompiledDesign design(sbox.netlist(), dm, pm);
  CompiledSim cmp(design, opts);

  Prng rng(seed);
  for (int step = 0; step < steps; ++step) {
    const auto init = sbox.encode(0, rng);
    const auto fin = sbox.encode(rng.nibble(), rng);
    ref.settle(init);
    cmp.settle(init);
    for (NetId n = 0; n < sbox.netlist().numGates(); ++n) {
      ASSERT_EQ(ref.value(n), cmp.value(n))
          << sbox.name() << " settled net " << n << " step " << step;
    }
    expectSameTransitions(ref.run(fin), cmp.run(fin));
    EXPECT_EQ(ref.outputValues(), cmp.outputValues());
  }
  expectSameStats(ref.stats(), cmp.stats());
}

TEST(CompiledSim, BitIdenticalAcrossStylesKindsAndAges) {
  for (SboxStyle style : allSboxStyles()) {
    const auto sbox = makeSbox(style);
    DelayModel dm(sbox->netlist());
    PowerModel pm(sbox->netlist());
    for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
      SimOptions opts;
      opts.kind = kind;
      // Fresh device.
      dm.clearAging();
      pm.clearAging();
      expectEngineIdentity(*sbox, dm, pm, opts, 0xA5EED, 4);
      // Aged device: non-uniform slowdown/attenuation exercises the
      // refreshed delay/energy snapshots.
      std::vector<double> slow(sbox->netlist().numGates());
      std::vector<double> dim(sbox->netlist().numGates());
      for (std::size_t g = 0; g < slow.size(); ++g) {
        slow[g] = 1.0 + 0.001 * static_cast<double>(g % 97);
        dim[g] = 1.0 - 0.0005 * static_cast<double>(g % 89);
      }
      dm.setAgingFactors(slow);
      pm.setAgingFactors(dim);
      expectEngineIdentity(*sbox, dm, pm, opts, 0xA6ED, 4);
    }
  }
}

TEST(CompiledSim, RunFusedEqualsSampleOfRecordedRun) {
  for (SboxStyle style : {SboxStyle::Glut, SboxStyle::Lut}) {
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    const CompiledDesign design(sbox->netlist(), dm, pm);
    for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
      SimOptions opts;
      opts.kind = kind;
      EventSim ref(sbox->netlist(), dm, opts);
      CompiledSim cmp(design, opts);
      Prng rng(42);
      for (int step = 0; step < 4; ++step) {
        const auto init = sbox->encode(0, rng);
        const auto fin = sbox->encode(rng.nibble(), rng);
        const std::uint64_t noiseSeed = rng.next() | 1ULL;
        ref.settle(init);
        const auto expected = pm.sample(ref.run(fin), noiseSeed);
        cmp.settle(init);
        const auto& fused = cmp.runFused(fin, noiseSeed);
        ASSERT_EQ(fused.size(), expected.size());
        for (std::size_t s = 0; s < expected.size(); ++s) {
          ASSERT_EQ(fused[s], expected[s])
              << sbox->name() << " sample " << s << " step " << step;
        }
      }
    }
  }
}

TEST(CompiledSim, DesignRefreshTracksAging) {
  // Compile once, age the models afterwards: refresh() must re-snapshot
  // the per-gate scalars without a rebuild.
  const auto sbox = makeSbox(SboxStyle::Rsm);
  DelayModel dm(sbox->netlist());
  PowerModel pm(sbox->netlist());
  CompiledDesign design(sbox->netlist(), dm, pm);

  std::vector<double> slow(sbox->netlist().numGates(), 1.15);
  dm.setAgingFactors(slow);
  std::vector<double> dim(sbox->netlist().numGates(), 0.93);
  pm.setAgingFactors(dim);
  design.refresh(dm, pm);

  SimOptions opts;
  EventSim ref(sbox->netlist(), dm, opts);
  CompiledSim cmp(design, opts);
  Prng rng(7);
  const auto init = sbox->encode(0, rng);
  const auto fin = sbox->encode(5, rng);
  ref.settle(init);
  cmp.settle(init);
  expectSameTransitions(ref.run(fin), cmp.run(fin));
}

TEST(CompiledSim, CloneAndResetReuseArenasBitIdentically) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  CompiledSim a(design, SimOptions{});

  Prng rng(9);
  const auto init = sbox->encode(0, rng);
  const auto fin = sbox->encode(11, rng);

  // Warm the arenas, then check a reset instance reproduces a fresh
  // instance exactly (reused buckets must not leak prior events).
  a.settle(init);
  const auto first = a.run(fin);
  a.reset();
  EXPECT_EQ(a.stats().runs, 0u);
  a.settle(init);
  expectSameTransitions(first, a.run(fin));

  // Back-to-back runs on one instance: arena reuse across runs.
  for (int i = 0; i < 3; ++i) {
    a.settle(init);
    expectSameTransitions(first, a.run(fin));
  }
}

TEST(CompiledSim, WatchdogDivergenceMatchesReference) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  SimOptions opts;
  opts.maxEvents = 5;  // far below a GLUT transition's event count

  EventSim ref(sbox->netlist(), dm, opts);
  CompiledSim cmp(design, opts);
  Prng rng(13);
  const auto init = sbox->encode(0, rng);
  const auto fin = sbox->encode(3, rng);

  std::uint64_t refEvents = 0, cmpEvents = 0;
  double refTime = -1.0, cmpTime = -2.0;
  ref.settle(init);
  try {
    ref.run(fin);
    FAIL() << "reference engine must diverge under maxEvents=5";
  } catch (const SimDiverged& e) {
    refEvents = e.eventsProcessed();
    refTime = e.simTimePs();
  }
  cmp.settle(init);
  try {
    cmp.run(fin);
    FAIL() << "compiled engine must diverge under maxEvents=5";
  } catch (const SimDiverged& e) {
    cmpEvents = e.eventsProcessed();
    cmpTime = e.simTimePs();
  }
  EXPECT_EQ(refEvents, cmpEvents);
  EXPECT_EQ(refTime, cmpTime);
  expectSameStats(ref.stats(), cmp.stats());

  // Both engines recover identically after settle() (the compiled engine's
  // calendar must carry no leftover events from the aborted run); under
  // the tiny budget the retry diverges again, with the same payload.
  ref.settle(init);
  cmp.settle(init);
  std::uint64_t refRetry = 0, cmpRetry = 1;
  try {
    ref.run(fin);
    FAIL() << "retry must diverge again";
  } catch (const SimDiverged& e) {
    refRetry = e.eventsProcessed();
  }
  try {
    cmp.run(fin);
    FAIL() << "retry must diverge again";
  } catch (const SimDiverged& e) {
    cmpRetry = e.eventsProcessed();
  }
  EXPECT_EQ(refRetry, cmpRetry);
  expectSameStats(ref.stats(), cmp.stats());
}

TEST(CompiledSim, RejectsWrongInputCountLikeReference) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  CompiledSim cmp(design, SimOptions{});
  EXPECT_THROW(cmp.settle({1, 0}), std::invalid_argument);
  EXPECT_THROW(cmp.run({1, 0}), std::invalid_argument);
  EXPECT_THROW(cmp.runFused({1, 0}, 1), std::invalid_argument);
}

TEST(CompiledDesign, RejectsForwardBridgeAndSizeMismatch) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const FaultInjector injector(sbox->netlist(), dm);

  // Overlays that keep index order lower like a fresh design; a bridge to
  // a later net does not keep it and is refused.
  for (const FaultSpec& f : fixtures::indexOrderedFaults(sbox->netlist())) {
    const FaultedDesign faulted = injector.apply(f);
    EXPECT_NO_THROW(CompiledDesign(faulted.netlist, faulted.delays, pm))
        << describeFault(f, sbox->netlist());
  }
  const FaultedDesign bridged =
      injector.apply(fixtures::acyclicForwardBridge(sbox->netlist()));
  EXPECT_FALSE(bridged.netlist.isIndexOrdered());
  EXPECT_THROW(CompiledDesign(bridged.netlist, dm, pm),
               std::invalid_argument);

  // Size mismatch: models built for a different netlist.
  const auto other = makeSbox(SboxStyle::Glut);
  const DelayModel odm(other->netlist());
  const PowerModel opm(other->netlist());
  EXPECT_THROW(CompiledDesign(sbox->netlist(), odm, opm),
               std::invalid_argument);
}

TEST(AcquireEngine, ForcedEnginesAreBitIdenticalAcrossThreads) {
  // Auto runs the batch engine on every eligible design at any call size.
  // Every call here has fewer distinct stimuli than one lane group: every
  // style at 1 and 3 traces per class, and LUT and OPT at 64 (1024 traces,
  // 16 distinct stimuli). Each must equal the reference run bit for bit,
  // and a private registry shows the batch engine ran and the reference
  // engine did not.
  std::vector<std::pair<SboxStyle, std::uint32_t>> calls;
  for (SboxStyle style : allSboxStyles()) {
    calls.emplace_back(style, 1);
    calls.emplace_back(style, 3);
  }
  calls.emplace_back(SboxStyle::Lut, 64);
  calls.emplace_back(SboxStyle::Opt, 64);
  for (const auto& [style, tracesPerClass] : calls) {
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    AcquisitionConfig cfg;
    cfg.tracesPerClass = tracesPerClass;
    cfg.numThreads = 1;
    cfg.engine = SimEngine::Reference;
    EventSim refSim(sbox->netlist(), dm);
    const TraceSet ref = acquire(*sbox, refSim, pm, cfg);

    cfg.engine = SimEngine::Auto;
    for (std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(sbox->name()) + " at " +
                   std::to_string(tracesPerClass) + "/class, " +
                   std::to_string(threads) + " threads");
      obs::MetricsRegistry reg;
      EventSim sim(sbox->netlist(), dm);
      sim.attachMetrics(&reg);
      cfg.numThreads = threads;
      expectIdenticalTraceSets(ref, acquire(*sbox, sim, pm, cfg));
      const std::uint64_t batchRuns = reg.counter("sim.batch.runs").value();
      EXPECT_GT(batchRuns, 0u);
      EXPECT_LE(batchRuns, 16u * tracesPerClass);
      if (tracesPerClass == 64) {
        EXPECT_EQ(batchRuns, 16u);
      }
      EXPECT_EQ(reg.counter("sim.runs").value(), 0u);
    }
  }
}

TEST(AcquireEngine, KeyedAcquisitionEnginesAgree) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.seed = 5;
  cfg.numThreads = 1;
  cfg.engine = SimEngine::Reference;
  const TraceSet ref = acquireKeyed(*sbox, sim, pm, cfg, /*key=*/0xB, 48);
  cfg.numThreads = 2;
  cfg.engine = SimEngine::Auto;
  const TraceSet fast = acquireKeyed(*sbox, sim, pm, cfg, 0xB, 48);
  expectIdenticalTraceSets(ref, fast);
}

TEST(AcquireEngine, FaultedDesignFallsBackAndForcedCompiledThrows) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const FaultedDesign faulted = FaultInjector(sbox->netlist(), dm)
                                    .apply(fixtures::acyclicForwardBridge(
                                        sbox->netlist()));
  const PowerModel pm(faulted.netlist);
  EventSim sim(faulted.netlist, dm);

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 1;
  cfg.numThreads = 1;

  // Auto must serve the forward-bridged design with the reference engine:
  // whatever the reference produces — a trace set, or a decode-mismatch
  // worker error for a logic-corrupting fault — Auto reproduces it exactly.
  const auto outcome = [&](SimEngine engine) {
    cfg.engine = engine;
    try {
      return std::make_pair(std::string("ok"), acquire(*sbox, sim, pm, cfg));
    } catch (const std::exception& e) {
      return std::make_pair(std::string(e.what()), TraceSet(0));
    }
  };
  const auto ref = outcome(SimEngine::Reference);
  const auto aut = outcome(SimEngine::Auto);
  EXPECT_EQ(ref.first, aut.first);
  expectIdenticalTraceSets(ref.second, aut.second);
}

// ---------------------------------------------------------------------------
// Fault overlays in acquisition: every overlay that keeps index order runs
// on the batch engine under Auto, with traces and tallies bit-identical to
// the reference engine's.

/// Engine-summed event tallies of one acquisition, read from a private
/// registry under the serving engine's counter prefix.
struct EngineTallies {
  std::uint64_t runs, events, committed, cancelled, filtered;
  bool operator==(const EngineTallies&) const = default;
};

EngineTallies talliesOf(const obs::MetricsRegistry& reg,
                        const std::string& prefix) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  return {snap.counterOr(prefix + "runs", 0),
          snap.counterOr(prefix + "events_processed", 0),
          snap.counterOr(prefix + "transitions_committed", 0),
          snap.counterOr(prefix + "events_cancelled", 0),
          snap.counterOr(prefix + "glitches_inertial_filtered", 0)};
}

/// Counter prefix of the engine that serves `engine` on an eligible design.
const char* prefixOf(SimEngine engine) {
  return engine == SimEngine::Auto ? "sim.batch." : "sim.";
}

TEST(FaultOverlayEngines, IndexOrderedOverlaysBitIdenticalOnEveryEngine) {
  for (SboxStyle style : {SboxStyle::Glut, SboxStyle::RsmRom, SboxStyle::Ti}) {
    // Decodes the fault-free outputs, so the faulted acquisitions complete.
    const fixtures::FaultFreeDecodeSbox sbox(makeSbox(style));
    const DelayModel dm(sbox.netlist());
    const PowerModel pm(sbox.netlist());
    for (const FaultSpec& f : fixtures::indexOrderedFaults(sbox.netlist())) {
      const FaultedDesign design =
          FaultInjector(sbox.netlist(), dm).apply(f);
      ASSERT_TRUE(design.netlist.isIndexOrdered());
      for (DelayKind kind : {DelayKind::Transport, DelayKind::Inertial}) {
        const std::string what = std::string(sbox.name()) + ", " +
                                 describeFault(f, sbox.netlist()) +
                                 (kind == DelayKind::Transport
                                      ? ", transport"
                                      : ", inertial");
        const auto run = [&](SimEngine engine, EngineTallies& tallies) {
          obs::MetricsRegistry reg;
          SimOptions opts;
          opts.kind = kind;
          EventSim sim(design.netlist, design.delays, opts);
          sim.attachMetrics(&reg);
          AcquisitionConfig cfg;
          cfg.tracesPerClass = 4;  // one full lane group
          cfg.numThreads = 2;
          cfg.engine = engine;
          TraceSet traces = acquire(sbox, sim, pm, cfg);
          tallies = talliesOf(reg, prefixOf(engine));
          return traces;
        };
        EngineTallies ref{}, bat{};
        const TraceSet refTraces = run(SimEngine::Reference, ref);
        ASSERT_EQ(ref.runs, 64u) << what;
        SCOPED_TRACE(what);
        expectIdenticalTraceSets(refTraces, run(SimEngine::Auto, bat));
        EXPECT_TRUE(ref == bat) << "batch tallies";
      }
    }
  }
}

TEST(FaultOverlayEngines, ForwardBridgeRefusedByFastEnginesServedByReference) {
  const fixtures::FaultFreeDecodeSbox sbox(makeSbox(SboxStyle::Glut));
  const DelayModel dm(sbox.netlist());
  const PowerModel pm(sbox.netlist());
  const FaultedDesign design = FaultInjector(sbox.netlist(), dm)
                                   .apply(fixtures::acyclicForwardBridge(
                                       sbox.netlist()));
  ASSERT_FALSE(design.netlist.isIndexOrdered());
  EXPECT_THROW(CompiledDesign(design.netlist, design.delays, pm),
               std::invalid_argument);

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;
  cfg.numThreads = 2;
  const auto run = [&](SimEngine engine, obs::MetricsRegistry& reg) {
    EventSim sim(design.netlist, design.delays);
    sim.attachMetrics(&reg);
    cfg.engine = engine;
    return acquire(sbox, sim, pm, cfg);
  };
  obs::MetricsRegistry refReg, autoReg;
  const TraceSet ref = run(SimEngine::Reference, refReg);
  expectIdenticalTraceSets(ref, run(SimEngine::Auto, autoReg));
  EXPECT_EQ(talliesOf(autoReg, "sim.").runs, 64u);
  EXPECT_EQ(talliesOf(autoReg, "sim.batch.").runs, 0u);
  EXPECT_TRUE(talliesOf(refReg, "sim.") == talliesOf(autoReg, "sim."));
}

TEST(FaultOverlayEngines, KeyedAcquisitionChecksTheDecodeOnEveryEngine) {
  // A stuck input corrupts half of the S-box inputs, so some trace of a
  // 64-trace keyed run decodes wrong on both engines.
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const FaultedDesign design = FaultInjector(sbox->netlist(), dm)
                                   .apply({FaultKind::StuckAt1,
                                           sbox->netlist().inputs().front()});
  for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
    EventSim sim(design.netlist, design.delays);
    AcquisitionConfig cfg;
    cfg.seed = 5;
    cfg.numThreads = 2;
    cfg.engine = engine;
    try {
      (void)acquireKeyed(*sbox, sim, pm, cfg, /*key=*/0x3, 64);
      ADD_FAILURE() << "keyed run on a corrupting fault must throw, engine "
                    << prefixOf(engine);
    } catch (const WorkerError& e) {
      bool sawDecode = false;
      try {
        std::rethrow_if_nested(e);
      } catch (const std::exception& nested) {
        sawDecode = std::string(nested.what()).find("decode mismatch") !=
                    std::string::npos;
      }
      EXPECT_TRUE(sawDecode) << e.what();
    }
  }
}

}  // namespace
}  // namespace lpa
