// Per-lane bit-identity suite for the bit-parallel batch engine.
//
// BatchSim (sim/batch_sim.h) promises that every lane behaves exactly like
// a private scalar simulator: identical transitions, settled states, fused
// traces, per-lane stats, and divergence payloads — with no tie-break
// waiver (the (time, pushId) wave order provably restricts to every lane's
// scalar (time, seq) order; see the batch_sim.h header). These tests pin
// the contract down across every implementation style, both delay kinds,
// fresh and aged devices, lane counts {1, 7, 64} plus a 200-trace grouped
// sweep, the batch invariance properties (lane permutation, batch size),
// and the acquisition engine-selection logic (Auto thresholds, fault
// fallback, thread invariance). Mirrors tests/test_compiled_sim.cpp.

#include "sim/batch_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "fault/fault_spec.h"
#include "fault_fixtures.h"
#include "netlist/builder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/compiled_sim.h"
#include "trace/acquisition.h"
#include "trace/prng.h"

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

/// A scalar engine's stats as a batch lane reports them: every field is
/// kept except peakQueueDepth, which BatchSim does not track per lane and
/// leaves at 0 (batch_sim.h, "Bit-identity contract").
SimStats asBatchLane(SimStats s) {
  s.peakQueueDepth = 0;
  return s;
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

/// One lane's stimulus set, drawn from a shared stream exactly like a
/// scalar consumer would draw it.
struct LaneStimulus {
  std::vector<std::uint8_t> init;
  std::vector<std::uint8_t> fin;
  std::uint64_t noiseSeed = 0;
};

std::vector<LaneStimulus> drawStimuli(const MaskedSbox& sbox,
                                      std::size_t lanes, Prng& rng) {
  std::vector<LaneStimulus> out(lanes);
  for (auto& s : out) {
    s.init = sbox.encode(0, rng);
    s.fin = sbox.encode(rng.nibble(), rng);
    s.noiseSeed = rng.next() | 1ULL;
  }
  return out;
}

std::vector<std::vector<std::uint8_t>> inits(
    const std::vector<LaneStimulus>& st) {
  std::vector<std::vector<std::uint8_t>> v;
  v.reserve(st.size());
  for (const auto& s : st) v.push_back(s.init);
  return v;
}

std::vector<std::vector<std::uint8_t>> fins(
    const std::vector<LaneStimulus>& st) {
  std::vector<std::vector<std::uint8_t>> v;
  v.reserve(st.size());
  for (const auto& s : st) v.push_back(s.fin);
  return v;
}

std::vector<std::uint64_t> seeds(const std::vector<LaneStimulus>& st) {
  std::vector<std::uint64_t> v;
  v.reserve(st.size());
  for (const auto& s : st) v.push_back(s.noiseSeed);
  return v;
}

/// Drives a batch of `lanes` stimuli of `sbox` through BatchSim on `nl`
/// (sbox's netlist or an overlay of it; recorded + fused) and asserts
/// every lane bit-identical to a private EventSim and CompiledSim run of
/// the same stimuli: settled nets, transitions, outputs, per-lane stats,
/// and fused traces.
void expectLaneIdentity(const MaskedSbox& sbox, const Netlist& nl,
                        const DelayModel& dm, const PowerModel& pm,
                        const SimOptions& opts, std::uint64_t seed,
                        std::size_t lanes) {
  SCOPED_TRACE(std::string(sbox.name()) + " lanes=" +
               std::to_string(lanes));
  const CompiledDesign design(nl, dm, pm);
  BatchSim bat(design, opts);

  Prng rng(seed);
  const auto st = drawStimuli(sbox, lanes, rng);
  bat.settle(inits(st));
  ASSERT_EQ(bat.activeLanes(), lanes);

  // Settled state per lane, checked before the run overwrites it.
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    const std::uint32_t lane = static_cast<std::uint32_t>(l);
    EventSim ref(nl, dm, opts);
    ref.settle(st[l].init);
    for (NetId n = 0; n < nl.numGates(); ++n) {
      ASSERT_EQ(ref.value(n), bat.value(n, lane)) << "settled net " << n;
    }
  }

  bat.run(fins(st));

  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    const std::uint32_t lane = static_cast<std::uint32_t>(l);
    EventSim ref(nl, dm, opts);
    CompiledSim cmp(design, opts);
    ref.settle(st[l].init);
    cmp.settle(st[l].init);
    const auto refLog = ref.run(st[l].fin);
    expectSameTransitions(refLog, bat.laneTransitions(lane));
    expectSameTransitions(cmp.run(st[l].fin), bat.laneTransitions(lane));
    EXPECT_EQ(ref.outputValues(), bat.outputValues(lane));
    expectSameStats(asBatchLane(ref.stats()), bat.laneStats(lane));

    // Fused trace parity: lane trace == PowerModel::sample of the scalar
    // run, checked below after the batch fused pass.
  }

  // Fused pass with the same stimuli (fresh batch instance so per-lane
  // stats stay one-run deep on both sides above).
  BatchSim fused(design, opts);
  fused.settle(inits(st));
  fused.runFused(fins(st), seeds(st));
  for (std::size_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("fused lane " + std::to_string(l));
    EventSim ref(nl, dm, opts);
    ref.settle(st[l].init);
    const auto expected = pm.sample(ref.run(st[l].fin), st[l].noiseSeed);
    const double* got = fused.laneTrace(static_cast<std::uint32_t>(l));
    for (std::size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ(got[s], expected[s]) << "sample " << s;
    }
  }
}

void expectLaneIdentity(const MaskedSbox& sbox, const DelayModel& dm,
                        const PowerModel& pm, const SimOptions& opts,
                        std::uint64_t seed, std::size_t lanes) {
  expectLaneIdentity(sbox, sbox.netlist(), dm, pm, opts, seed, lanes);
}

TEST(BatchSim, BitIdenticalAcrossStylesKindsAgesAndLaneCounts) {
  for (SboxStyle style : allSboxStyles()) {
    const auto sbox = makeSbox(style);
    DelayModel dm(sbox->netlist());
    PowerModel pm(sbox->netlist());
    for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
      SimOptions opts;
      opts.kind = kind;
      // Fresh device, the lane-count sweep including a full word.
      dm.clearAging();
      pm.clearAging();
      for (std::size_t lanes : {std::size_t(1), std::size_t(7),
                                std::size_t(64)}) {
        expectLaneIdentity(*sbox, dm, pm, opts, 0xA5EED, lanes);
      }
      // Aged device: non-uniform slowdown/attenuation exercises the
      // refreshed delay/energy snapshots (and the batch calendar's
      // delay-derived bucket width).
      std::vector<double> slow(sbox->netlist().numGates());
      std::vector<double> dim(sbox->netlist().numGates());
      for (std::size_t g = 0; g < slow.size(); ++g) {
        slow[g] = 1.0 + 0.001 * static_cast<double>(g % 97);
        dim[g] = 1.0 - 0.0005 * static_cast<double>(g % 89);
      }
      dm.setAgingFactors(slow);
      pm.setAgingFactors(dim);
      expectLaneIdentity(*sbox, dm, pm, opts, 0xA6ED, 7);
    }
  }
}

TEST(BatchSim, TwoHundredTracesAcrossPartialGroups) {
  // A 200-trace budget grouped 64+64+64+8: every group — full and partial —
  // must reproduce the scalar engine lane by lane.
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
    SimOptions opts;
    opts.kind = kind;
    Prng rng(0x200);
    const auto st = drawStimuli(*sbox, 200, rng);
    BatchSim bat(design, opts);
    EventSim ref(sbox->netlist(), dm, opts);
    for (std::size_t base = 0; base < st.size();
         base += BatchSim::kLanes) {
      const std::size_t lanes =
          std::min<std::size_t>(BatchSim::kLanes, st.size() - base);
      const std::vector<LaneStimulus> group(st.begin() + base,
                                            st.begin() + base + lanes);
      bat.settle(inits(group));
      bat.run(fins(group));
      for (std::size_t l = 0; l < lanes; ++l) {
        SCOPED_TRACE("trace " + std::to_string(base + l));
        ref.settle(group[l].init);
        expectSameTransitions(
            ref.run(group[l].fin),
            bat.laneTransitions(static_cast<std::uint32_t>(l)));
        EXPECT_EQ(ref.outputValues(),
                  bat.outputValues(static_cast<std::uint32_t>(l)));
      }
    }
  }
}

TEST(BatchSim, LanePermutationInvariance) {
  // Reversing the lane order must reverse the results and nothing else:
  // lanes are independent simulations that merely share words.
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  SimOptions opts;

  Prng rng(0xFACE);
  const auto st = drawStimuli(*sbox, 9, rng);
  std::vector<LaneStimulus> rev(st.rbegin(), st.rend());

  BatchSim fwd(design, opts);
  fwd.settle(inits(st));
  fwd.run(fins(st));
  BatchSim bwd(design, opts);
  bwd.settle(inits(rev));
  bwd.run(fins(rev));
  for (std::size_t l = 0; l < st.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    const std::uint32_t mirror =
        static_cast<std::uint32_t>(st.size() - 1 - l);
    expectSameTransitions(
        fwd.laneTransitions(static_cast<std::uint32_t>(l)),
        bwd.laneTransitions(mirror));
    expectSameStats(fwd.laneStats(static_cast<std::uint32_t>(l)),
                    bwd.laneStats(mirror));
  }

  BatchSim ffw(design, opts);
  ffw.settle(inits(st));
  ffw.runFused(fins(st), seeds(st));
  BatchSim fbw(design, opts);
  fbw.settle(inits(rev));
  std::vector<std::uint64_t> revSeeds(seeds(st));
  std::reverse(revSeeds.begin(), revSeeds.end());
  fbw.runFused(fins(rev), revSeeds);
  for (std::size_t l = 0; l < st.size(); ++l) {
    const double* a = ffw.laneTrace(static_cast<std::uint32_t>(l));
    const double* b =
        fbw.laneTrace(static_cast<std::uint32_t>(st.size() - 1 - l));
    for (std::uint32_t s = 0; s < design.numSamples; ++s) {
      ASSERT_EQ(a[s], b[s]) << "lane " << l << " sample " << s;
    }
  }
}

TEST(BatchSim, BatchSizeInvariance) {
  // 150 traces grouped {64, 64, 22} and {50, 50, 50} must produce the same
  // per-trace results: grouping is a pure batching decision.
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  SimOptions opts;

  Prng rng(0x150);
  const auto st = drawStimuli(*sbox, 150, rng);
  const auto collect = [&](const std::vector<std::size_t>& groupSizes) {
    std::vector<std::vector<double>> traces;
    BatchSim bat(design, opts);
    std::size_t base = 0;
    for (std::size_t sz : groupSizes) {
      const std::vector<LaneStimulus> group(st.begin() + base,
                                            st.begin() + base + sz);
      bat.settle(inits(group));
      bat.runFused(fins(group), seeds(group));
      for (std::size_t l = 0; l < sz; ++l) {
        const double* t = bat.laneTrace(static_cast<std::uint32_t>(l));
        traces.emplace_back(t, t + design.numSamples);
      }
      base += sz;
    }
    return traces;
  };
  const auto a = collect({64, 64, 22});
  const auto b = collect({50, 50, 50});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "trace " << i;
  }
}

TEST(BatchSim, CloneAndResetReuseArenasBitIdentically) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  BatchSim a(design, SimOptions{});

  Prng rng(9);
  const auto st = drawStimuli(*sbox, 5, rng);

  // Warm the arenas, then check a clone and a reset instance reproduce a
  // fresh instance exactly (reused buckets and packed pending words must
  // not leak prior events).
  a.settle(inits(st));
  a.run(fins(st));
  std::vector<std::vector<Transition>> first;
  for (std::uint32_t l = 0; l < 5; ++l) {
    first.push_back(a.laneTransitions(l));
  }

  BatchSim b = a.clone();
  EXPECT_EQ(b.laneStats(0).runs, 0u) << "clone starts with zeroed stats";
  b.settle(inits(st));
  b.run(fins(st));
  for (std::uint32_t l = 0; l < 5; ++l) {
    expectSameTransitions(first[l], b.laneTransitions(l));
  }

  a.reset();
  EXPECT_EQ(a.laneStats(0).runs, 0u);
  a.settle(inits(st));
  a.run(fins(st));
  for (std::uint32_t l = 0; l < 5; ++l) {
    expectSameTransitions(first[l], a.laneTransitions(l));
  }

  // Back-to-back runs on one instance: arena reuse across runs.
  for (int i = 0; i < 3; ++i) {
    a.settle(inits(st));
    a.run(fins(st));
    for (std::uint32_t l = 0; l < 5; ++l) {
      expectSameTransitions(first[l], a.laneTransitions(l));
    }
  }
}

TEST(BatchSim, WatchdogDivergenceMatchesReferencePerLane) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  SimOptions opts;
  opts.maxEvents = 5;  // far below a GLUT transition's event count

  Prng rng(13);
  const auto st = drawStimuli(*sbox, 7, rng);
  BatchSim bat(design, opts);
  bat.settle(inits(st));
  std::uint64_t batEvents = 0;
  double batTime = -2.0;
  int lane = -1;
  try {
    bat.run(fins(st));
    FAIL() << "batch engine must diverge under maxEvents=5";
  } catch (const SimDiverged& e) {
    batEvents = e.eventsProcessed();
    batTime = e.simTimePs();
    lane = bat.divergedLane();
  }
  ASSERT_GE(lane, 0);

  // The diverged lane's payload and stats must equal its private scalar
  // run's (the other lanes stopped mid-flight; their stats carry no
  // contract).
  EventSim ref(sbox->netlist(), dm, opts);
  ref.settle(st[static_cast<std::size_t>(lane)].init);
  std::uint64_t refEvents = 0;
  double refTime = -1.0;
  try {
    ref.run(st[static_cast<std::size_t>(lane)].fin);
    FAIL() << "reference engine must diverge under maxEvents=5";
  } catch (const SimDiverged& e) {
    refEvents = e.eventsProcessed();
    refTime = e.simTimePs();
  }
  EXPECT_EQ(refEvents, batEvents);
  EXPECT_EQ(refTime, batTime);
  expectSameStats(asBatchLane(ref.stats()),
                  bat.laneStats(static_cast<std::uint32_t>(lane)));

  // Recovery: after settle() the aborted run's calendar and pending words
  // must be gone; the retry diverges again with the same payload.
  bat.settle(inits(st));
  std::uint64_t retryEvents = 0;
  try {
    bat.run(fins(st));
    FAIL() << "retry must diverge again";
  } catch (const SimDiverged& e) {
    retryEvents = e.eventsProcessed();
  }
  EXPECT_EQ(batEvents, retryEvents);
  EXPECT_EQ(lane, bat.divergedLane());
}

TEST(BatchSim, GroupAfterDivergenceMatchesAFreshInstance) {
  // The fault campaign keeps one BatchSim per fault and runs the next lane
  // group on it after a group tripped the watchdog: that group's traces
  // and outputs must equal a fresh instance's.
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  Prng rng(17);
  const auto st = drawStimuli(*sbox, BatchSim::kLanes, rng);

  // Budget at the median lane's event count: about half the lanes trip.
  BatchSim probe(design, SimOptions{});
  probe.settle(inits(st));
  probe.run(fins(st));
  std::vector<std::uint64_t> events;
  for (std::uint32_t l = 0; l < BatchSim::kLanes; ++l) {
    events.push_back(probe.laneStats(l).eventsProcessed);
  }
  std::vector<std::uint64_t> sorted = events;
  std::sort(sorted.begin(), sorted.end());
  SimOptions opts;
  opts.maxEvents = sorted[sorted.size() / 2];
  std::vector<LaneStimulus> quiet;
  for (std::size_t l = 0; l < st.size(); ++l) {
    if (events[l] <= opts.maxEvents) quiet.push_back(st[l]);
  }
  ASSERT_GT(quiet.size(), 1u);
  ASSERT_LT(quiet.size(), st.size());

  BatchSim reused(design, opts);
  reused.settle(inits(st));
  EXPECT_THROW(reused.runFused(fins(st), seeds(st)), SimDiverged);

  BatchSim fresh(design, opts);
  for (BatchSim* sim : {&reused, &fresh}) {
    sim->settle(inits(quiet));
    sim->runFused(fins(quiet), seeds(quiet));
  }
  for (std::uint32_t l = 0; l < quiet.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    EXPECT_EQ(reused.outputValues(l), fresh.outputValues(l));
    const std::vector<double> a(reused.laneTrace(l),
                                reused.laneTrace(l) + design.numSamples);
    const std::vector<double> b(fresh.laneTrace(l),
                                fresh.laneTrace(l) + design.numSamples);
    EXPECT_EQ(a, b);
  }
}

TEST(BatchSim, RingCalendarWrapsBitIdentically) {
  // The calendar is a ring spanning one largest gate delay (batch_sim.h,
  // "Calendar ring"). RSM-ROM's depth-136 delay lines carry its events
  // across many ring lengths, and a DelayInflation overlay makes one
  // gate's events land far past the others'.
  for (SboxStyle style : {SboxStyle::RsmRom, SboxStyle::Glut}) {
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    const FaultedDesign inflated =
        FaultInjector(sbox->netlist(), dm)
            .apply(FaultSpec{FaultKind::DelayInflation,
                             fixtures::midGate(sbox->netlist()), 8.0});
    for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
      SimOptions opts;
      opts.kind = kind;
      if (style == SboxStyle::RsmRom) {
        const CompiledDesign design(sbox->netlist(), dm, pm);
        BatchSim sim(design, opts);
        Prng rng(0x121);
        const auto st = drawStimuli(*sbox, BatchSim::kLanes, rng);
        sim.settle(inits(st));
        sim.run(fins(st));
        double last = 0.0;
        for (std::uint32_t l = 0; l < BatchSim::kLanes; ++l) {
          for (const Transition& t : sim.laneTransitions(l)) {
            last = std::max(last, t.timePs);
          }
        }
        EXPECT_GT(last, 20 * design.maxDelayPs);
        expectLaneIdentity(*sbox, dm, pm, opts, 0x121, BatchSim::kLanes);
      }
      SCOPED_TRACE("delay x8 on net " +
                   std::to_string(fixtures::midGate(sbox->netlist())));
      expectLaneIdentity(*sbox, inflated.netlist, inflated.delays, pm, opts,
                         0x122, BatchSim::kLanes);
    }
  }
}

TEST(BatchSim, RingCalendarKeepsTheArenaSmall) {
  // A calendar sized to RSM-ROM's combinational horizon held 1197 buckets,
  // each keeping its capacity: 2.5 MB after this one run, about 5 MB over
  // a Fig. 7 cell. The ring holds 16; what is left is mostly the
  // per-(net, lane) commit times.
  const ExperimentConfig fig7;
  const auto sbox = makeSbox(SboxStyle::RsmRom);
  const DelayModel dm(sbox->netlist(), fig7.delay);
  const PowerModel pm(sbox->netlist(), fig7.power);
  const CompiledDesign design(sbox->netlist(), dm, pm);
  obs::Profiler prof;
  BatchSim sim(design, fig7.sim);
  sim.attachProfiler(&prof);
  Prng rng(0xA7E4A);
  const auto st = drawStimuli(*sbox, BatchSim::kLanes, rng);
  sim.settle(inits(st));
  sim.runFused(fins(st), seeds(st));
  const obs::Json report = prof.toJson();
  const obs::Json* arena = report.find("arenas")->find("batch");
  ASSERT_NE(arena, nullptr);
  EXPECT_LE(arena->asNumber(), 1.5 * 1024 * 1024);
}

TEST(BatchSim, RejectsBadLaneConfigurations) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  const CompiledDesign design(sbox->netlist(), dm, pm);
  BatchSim bat(design, SimOptions{});

  // Wrong per-lane input width, like the scalar engines.
  EXPECT_THROW(bat.settle({{1, 0}}), std::invalid_argument);
  // No lanes / too many lanes.
  EXPECT_THROW(bat.settle({}), std::invalid_argument);
  Prng rng(3);
  std::vector<std::vector<std::uint8_t>> many(
      65, sbox->encode(0, rng));
  EXPECT_THROW(bat.settle(many), std::invalid_argument);

  // Lane-count mismatches between settle and run, and seed/lane mismatch.
  const auto st = drawStimuli(*sbox, 3, rng);
  bat.settle(inits(st));
  const auto two = drawStimuli(*sbox, 2, rng);
  EXPECT_THROW(bat.run(fins(two)), std::invalid_argument);
  EXPECT_THROW(bat.runFused(fins(st), {1, 2}), std::invalid_argument);
}

TEST(BatchSim, EvaluateOutputsMatchesNetlistPerLane) {
  for (SboxStyle style : allSboxStyles()) {
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    const CompiledDesign design(sbox->netlist(), dm, pm);
    Prng rng(21);
    for (std::size_t lanes : {std::size_t(1), std::size_t(64)}) {
      const auto st = drawStimuli(*sbox, lanes, rng);
      const auto got = BatchSim::evaluateOutputs(design, fins(st));
      ASSERT_EQ(got.size(), lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(got[l], sbox->netlist().evaluateOutputs(st[l].fin))
            << sbox->name() << " lane " << l;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wave merging (batch_sim.h, "Wave merging"): a push joins its net's open
// wave only when every covered lane keeps its pop order. A 1-lane BatchSim
// can never merge (a push always shares its one lane with the open wave),
// so it is the unmerged twin each lane of a 64-lane run must equal.

/// Runs `st` through one BatchSim (recorded and fused) and checks every
/// lane's transitions, fused trace and stats against a 1-lane BatchSim and
/// an EventSim run of the same stimulus.
void expectMergedLanesMatchSingleLane(const Netlist& nl, const DelayModel& dm,
                                      const PowerModel& pm,
                                      const SimOptions& opts,
                                      const std::vector<LaneStimulus>& st) {
  const CompiledDesign design(nl, dm, pm);
  BatchSim bat(design, opts);
  bat.settle(inits(st));
  bat.run(fins(st));
  BatchSim fused(design, opts);
  fused.settle(inits(st));
  fused.runFused(fins(st), seeds(st));
  for (std::uint32_t l = 0; l < st.size(); ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    BatchSim one(design, opts);
    one.settle({st[l].init});
    one.run({st[l].fin});
    EventSim ref(nl, dm, opts);
    ref.settle(st[l].init);
    const auto refLog = ref.run(st[l].fin);
    expectSameTransitions(refLog, bat.laneTransitions(l));
    expectSameTransitions(one.laneTransitions(0), bat.laneTransitions(l));
    expectSameStats(asBatchLane(ref.stats()), bat.laneStats(l));
    expectSameStats(one.laneStats(0), bat.laneStats(l));

    BatchSim oneFused(design, opts);
    oneFused.settle({st[l].init});
    oneFused.runFused({st[l].fin}, {st[l].noiseSeed});
    const auto expected = pm.sample(refLog, st[l].noiseSeed);
    for (std::size_t s = 0; s < expected.size(); ++s) {
      ASSERT_EQ(fused.laneTrace(l)[s], expected[s]) << "sample " << s;
      ASSERT_EQ(fused.laneTrace(l)[s], oneFused.laneTrace(0)[s])
          << "sample " << s;
    }
  }
}

/// Zero-jitter reconvergent netlist over inputs (a, c, b, k, e), in that
/// input order: g = a^b and h = c^k reconverge in y = g^h, and f = b^e and
/// y in v = f^y. Every XOR drives at most one gate, so all have the same
/// delay and waves of different nets share times. At t = 0 the input walk
/// pushes g (lanes toggling a), then h (lanes toggling c or k), then g
/// again (lanes toggling b): the second g push may join the first only if
/// none of its lanes also toggled a, c or k — the h wave pushed in between
/// must pop before g for such a lane. One level later, y is pushed from
/// g's commit and then from h's: a lane toggling a and c is in both pushes
/// (a zero-width transport glitch on y), so they must stay separate waves.
Netlist reconvergentXorNetlist() {
  NetlistBuilder b;
  const NetId a = b.input("a");
  const NetId c = b.input("c");
  const NetId bb = b.input("b");
  const NetId k = b.input("k");
  const NetId e = b.input("e");
  const NetId g = b.xorGate(a, bb);
  const NetId h = b.xorGate(c, k);
  const NetId f = b.xorGate(bb, e);
  const NetId y = b.xorGate(g, h);
  b.output(b.xorGate(f, y), "v");
  return b.take();
}

/// 64 lanes with random initial inputs, lane l toggling the input set
/// toggles[l % toggles.size()] (bit i = input i in (a, c, b, k, e) order).
std::vector<LaneStimulus> toggleStimuli(const std::vector<unsigned>& toggles,
                                        Prng& rng) {
  std::vector<LaneStimulus> out(BatchSim::kLanes);
  for (std::size_t l = 0; l < out.size(); ++l) {
    LaneStimulus& s = out[l];
    const unsigned flip = toggles[l % toggles.size()];
    for (unsigned i = 0; i < 5; ++i) {
      s.init.push_back(rng.bit());
      s.fin.push_back(static_cast<std::uint8_t>(s.init.back() ^
                                                ((flip >> i) & 1u)));
    }
    s.noiseSeed = rng.next() | 1ULL;
  }
  return out;
}

TEST(BatchMerge, ReconvergentZeroJitterLanesMatchSingleLaneRuns) {
  constexpr unsigned kA = 1, kC = 2, kB = 4, kK = 8, kE = 16;
  // Toggle patterns, each a separate 64-lane run: one input per lane (all
  // pushes disjoint: merges everywhere); a/c+b/b/k/e (the h wave refuses
  // the second g push); a+c/a/c/e (the a+c lanes refuse the second y
  // push); and every lane a different random set.
  std::vector<std::vector<unsigned>> patterns = {
      {kA, kC, kB, kK, kE},
      {kA, kC | kB, kB, kK, kE},
      {kA | kC, kA, kC, kE},
      {}};
  Prng pick(0x3E6E);
  for (std::size_t l = 0; l < BatchSim::kLanes; ++l) {
    patterns.back().push_back(pick.bits(5));
  }

  // Both delay kinds on both accounting paths: no watchdog (derived
  // tallies, transport no-ops dropped at push) and an armed watchdog that
  // never trips (no-ops queued, pops counted lane by lane).
  std::vector<SimOptions> optionSets;
  for (DelayKind kind : {DelayKind::Inertial, DelayKind::Transport}) {
    for (std::uint64_t budget : {std::uint64_t(0), std::uint64_t(1) << 20}) {
      SimOptions opts;
      opts.kind = kind;
      opts.maxEvents = budget;
      optionSets.push_back(opts);
    }
  }
  const auto describe = [](const SimOptions& opts) {
    return "kind " + std::to_string(static_cast<int>(opts.kind)) +
           " maxEvents " + std::to_string(opts.maxEvents);
  };

  const Netlist nl = reconvergentXorNetlist();
  DelayOptions zeroJitter;
  zeroJitter.jitterSigma = 0.0;
  const DelayModel dm(nl, zeroJitter);
  const PowerModel pm(nl);
  for (const SimOptions& opts : optionSets) {
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      SCOPED_TRACE(describe(opts) + " pattern " + std::to_string(p));
      Prng rng(0x3E60 + p);
      expectMergedLanesMatchSingleLane(nl, dm, pm, opts,
                                       toggleStimuli(patterns[p], rng));
    }
  }

  // The same contract on real S-box netlists without jitter, where the
  // reconvergent share paths give many nets the same event times.
  for (SboxStyle style : {SboxStyle::Isw, SboxStyle::Ti}) {
    const auto sbox = makeSbox(style);
    const DelayModel sdm(sbox->netlist(), zeroJitter);
    const PowerModel spm(sbox->netlist());
    for (const SimOptions& opts : optionSets) {
      SCOPED_TRACE(std::string(sbox->name()) + " " + describe(opts));
      Prng rng(0x3E61);
      expectMergedLanesMatchSingleLane(sbox->netlist(), sdm, spm, opts,
                                       drawStimuli(*sbox, BatchSim::kLanes,
                                                   rng));
    }
  }
}

TEST(BatchMerge, TiWavesStayFewPerEvent) {
  // Merging pays off most on TI. On one 64-lane TI group at the
  // acquisition defaults, a popped wave stands for ~21 reference events
  // with merging and ~8 without it (measured with the merge disabled), so
  // the floor of 14 fails if merging silently stops.
  const ExperimentConfig cfg;
  const auto sbox = makeSbox(SboxStyle::Ti);
  const DelayModel dm(sbox->netlist(), cfg.delay);
  const PowerModel pm(sbox->netlist(), cfg.power);
  const CompiledDesign design(sbox->netlist(), dm, pm);
  obs::MetricsRegistry registry;
  BatchSim bat(design, cfg.sim);
  bat.attachMetrics(&registry);
  Prng rng(0x7173);
  const auto st = drawStimuli(*sbox, BatchSim::kLanes, rng);
  bat.settle(inits(st));
  bat.runFused(fins(st), seeds(st));
  const std::uint64_t waves = registry.counter("sim.batch.waves").value();
  const std::uint64_t events =
      registry.counter("sim.batch.events_processed").value();
  ASSERT_GT(waves, 0u);
  EXPECT_LT(waves * 14, events)
      << waves << " waves for " << events << " events";
}

TEST(BatchAcquire, AutoPicksBatchAtLaneWidthAndCompiledBelow) {
  // Regression for the Auto selection rule, which counts the distinct
  // stimuli of a call: below the lane width Auto falls back to the compiled
  // engine (not throw, not batch); from one full lane group on, the batch
  // engine serves the run. GLUT's 8 random bits make 32 and 64 traces all
  // distinct, so both sides of the rule show there. LUT has no random bits:
  // its 64 traces are 16 distinct stimuli, which the compiled engine runs
  // once each. Engine counters in a private registry make the choice
  // observable.
  const auto acquireOn = [](SboxStyle style, std::uint32_t tracesPerClass,
                            obs::MetricsRegistry& registry) {
    const auto sbox = makeSbox(style);
    const DelayModel dm(sbox->netlist());
    const PowerModel pm(sbox->netlist());
    EventSim sim(sbox->netlist(), dm);
    sim.attachMetrics(&registry);
    AcquisitionConfig cfg;
    cfg.tracesPerClass = tracesPerClass;
    cfg.numThreads = 1;
    cfg.engine = SimEngine::Auto;
    acquire(*sbox, sim, pm, cfg);
  };

  obs::MetricsRegistry below;
  acquireOn(SboxStyle::Glut, 2, below);  // 32 traces < 64 lanes
  EXPECT_EQ(below.counter("sim.batch.batches").value(), 0u);
  EXPECT_EQ(below.counter("sim.compiled.runs").value(), 32u);

  obs::MetricsRegistry full;
  acquireOn(SboxStyle::Glut, 4, full);  // 64 traces = one full lane group
  EXPECT_EQ(full.counter("sim.batch.batches").value(), 1u);
  EXPECT_EQ(full.counter("sim.batch.runs").value(), 64u);
  EXPECT_EQ(full.counter("sim.compiled.runs").value(), 0u);

  obs::MetricsRegistry lut;
  acquireOn(SboxStyle::Lut, 4, lut);  // 64 traces, 16 distinct stimuli
  EXPECT_EQ(lut.counter("sim.batch.batches").value(), 0u);
  EXPECT_EQ(lut.counter("sim.compiled.runs").value(), 16u);
}

TEST(BatchAcquire, ForcedEnginesAreBitIdenticalAcrossThreads) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);

  // 13 traces/class = 208 traces: three full lane groups plus a partial
  // 16-lane tail, so thread sharding cuts through group boundaries.
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 13;
  cfg.numThreads = 1;
  cfg.engine = SimEngine::Reference;
  const TraceSet ref = acquire(*sbox, sim, pm, cfg);

  for (std::uint32_t threads : {1u, 2u, 0u}) {  // 0 = hardware concurrency
    cfg.numThreads = threads;
    cfg.engine = SimEngine::Batch;
    expectIdenticalTraceSets(ref, acquire(*sbox, sim, pm, cfg));
    cfg.engine = SimEngine::Auto;
    expectIdenticalTraceSets(ref, acquire(*sbox, sim, pm, cfg));
  }

  // A forced batch run below the lane width is a legal partial group.
  cfg.tracesPerClass = 2;
  cfg.numThreads = 1;
  cfg.engine = SimEngine::Reference;
  const TraceSet small = acquire(*sbox, sim, pm, cfg);
  cfg.engine = SimEngine::Batch;
  expectIdenticalTraceSets(small, acquire(*sbox, sim, pm, cfg));
}

TEST(BatchAcquire, KeyedAcquisitionEnginesAgree) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.seed = 5;
  cfg.numThreads = 1;
  cfg.engine = SimEngine::Reference;
  const TraceSet ref = acquireKeyed(*sbox, sim, pm, cfg, /*key=*/0xB, 100);
  cfg.numThreads = 2;
  cfg.engine = SimEngine::Batch;
  const TraceSet bat = acquireKeyed(*sbox, sim, pm, cfg, 0xB, 100);
  expectIdenticalTraceSets(ref, bat);
}

TEST(BatchAcquire, FaultedDesignFallsBackAndForcedBatchThrows) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const FaultedDesign faulted = FaultInjector(sbox->netlist(), dm)
                                    .apply(fixtures::acyclicForwardBridge(
                                        sbox->netlist()));
  const PowerModel pm(faulted.netlist);
  EventSim sim(faulted.netlist, dm);

  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;  // 64 traces: Auto would pick Batch if eligible
  cfg.numThreads = 1;

  // Regression: Auto must *fall back* on a forward-bridged netlist, never
  // throw — it reproduces the reference outcome exactly (a trace set, or
  // a decode-mismatch worker error for a logic-corrupting fault).
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

  // Forcing the batch engine on a forward bridge is an immediate
  // configuration error, before any worker runs.
  cfg.engine = SimEngine::Batch;
  EXPECT_THROW(acquire(*sbox, sim, pm, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace lpa
