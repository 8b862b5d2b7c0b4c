// Fault-injection subsystem tests: clone-with-overlay injector semantics,
// the simulator watchdog, cycle validation, and campaign degradation.

#include "fault/campaign.h"
#include "fault/fault_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "core/experiment.h"
#include "crypto/present.h"
#include "fault_fixtures.h"
#include "netlist/builder.h"
#include "netlist/validate.h"
#include "obs/event_journal.h"
#include "sboxes/encoding.h"
#include "sim/compiled_design.h"
#include "trace/acquisition.h"

namespace lpa {
namespace {

DelayOptions noJitter() {
  DelayOptions d;
  d.jitterSigma = 0.0;
  d.loadFactorPerFanout = 0.0;
  return d;
}

// y = a AND b, with a buffered copy of y as a second output.
struct TinyDesign {
  Netlist nl;
  NetId a, b, y, yBuf;
};

TinyDesign tinyAnd() {
  TinyDesign d;
  NetlistBuilder bld;
  d.a = bld.input("a");
  d.b = bld.input("b");
  d.y = bld.andGate({d.a, d.b});
  d.yBuf = bld.buf(d.y);
  bld.output(d.y, "y");
  bld.output(d.yBuf, "ybuf");
  d.nl = bld.take();
  return d;
}

TEST(FaultInjector, StuckAtOverridesGateAndLeavesBaseUntouched) {
  const TinyDesign d = tinyAnd();
  const DelayModel dm(d.nl, noJitter());
  const FaultInjector inj(d.nl, dm);

  const FaultedDesign sa0 = inj.apply({FaultKind::StuckAt0, d.y});
  EXPECT_EQ(sa0.netlist.gate(d.y).type, GateType::Const0);
  EXPECT_EQ(sa0.netlist.evaluateOutputs({1, 1}), (std::vector<std::uint8_t>{0, 0}));

  const FaultedDesign sa1 = inj.apply({FaultKind::StuckAt1, d.y});
  EXPECT_EQ(sa1.netlist.evaluateOutputs({0, 0}), (std::vector<std::uint8_t>{1, 1}));

  // The base design is a shared read-only model; the overlay must not leak.
  EXPECT_EQ(d.nl.gate(d.y).type, GateType::And);
  EXPECT_EQ(d.nl.evaluateOutputs({1, 1}), (std::vector<std::uint8_t>{1, 1}));
}

TEST(FaultInjector, StuckInputIgnoresStimulus) {
  const TinyDesign d = tinyAnd();
  const DelayModel dm(d.nl, noJitter());
  const FaultedDesign f =
      FaultInjector(d.nl, dm).apply({FaultKind::StuckAt1, d.a});

  // Zero-delay: the stuck input wins over the supplied value.
  EXPECT_EQ(f.netlist.evaluateOutputs({0, 1}),
            (std::vector<std::uint8_t>{1, 1}));

  // Event-driven: stimulus on the stuck input is dropped, so toggling `a`
  // alone produces no transitions.
  const DelayModel fdm(f.netlist, noJitter());
  EventSim sim(f.netlist, fdm);
  sim.settle({0, 1});
  EXPECT_EQ(sim.value(d.y), 1);  // 1 (stuck) AND 1
  EXPECT_TRUE(sim.run({1, 1}).empty());
}

TEST(FaultInjector, BitFlipComplementsTheCell) {
  const TinyDesign d = tinyAnd();
  const DelayModel dm(d.nl, noJitter());
  const FaultInjector inj(d.nl, dm);

  const FaultedDesign flip = inj.apply({FaultKind::BitFlip, d.y});
  EXPECT_EQ(flip.netlist.gate(d.y).type, GateType::Nand);
  for (std::uint8_t a = 0; a <= 1; ++a) {
    for (std::uint8_t b = 0; b <= 1; ++b) {
      EXPECT_EQ(flip.netlist.evaluateOutputs({a, b})[0], (a & b) ^ 1u);
    }
  }
  const FaultedDesign flipBuf = inj.apply({FaultKind::BitFlip, d.yBuf});
  EXPECT_EQ(flipBuf.netlist.gate(d.yBuf).type, GateType::Inv);

  // No driver function on a primary input: not expressible.
  EXPECT_THROW(inj.apply({FaultKind::BitFlip, d.a}), std::invalid_argument);
}

TEST(FaultInjector, DelayInflationScalesOnlyTheOverlay) {
  const TinyDesign d = tinyAnd();
  const DelayModel dm(d.nl, noJitter());
  const double fresh = dm.delayPs(d.y);

  FaultSpec spec;
  spec.kind = FaultKind::DelayInflation;
  spec.net = d.y;
  spec.delayFactor = 3.0;
  const FaultedDesign f = FaultInjector(d.nl, dm).apply(spec);
  EXPECT_DOUBLE_EQ(f.delays.delayPs(d.y), fresh * 3.0);
  EXPECT_DOUBLE_EQ(dm.delayPs(d.y), fresh);  // original untouched

  spec.delayFactor = 0.0;
  EXPECT_THROW(FaultInjector(d.nl, dm).apply(spec), std::invalid_argument);
}

TEST(FaultInjector, RejectsMissingNetsAndBadBridgePins) {
  const TinyDesign d = tinyAnd();
  const DelayModel dm(d.nl, noJitter());
  const FaultInjector inj(d.nl, dm);
  EXPECT_THROW(inj.apply({FaultKind::StuckAt0, 1000}), std::invalid_argument);

  FaultSpec bridge;
  bridge.kind = FaultKind::Bridge;
  bridge.net = d.y;
  bridge.pin = 7;
  bridge.bridgeTo = d.b;
  EXPECT_THROW(inj.apply(bridge), std::invalid_argument);
  bridge.net = d.a;  // source gate: no pins
  bridge.pin = 0;
  EXPECT_THROW(inj.apply(bridge), std::invalid_argument);
}

// An XOR ring oscillator, armed by a Bridge fault: base is the acyclic
//   feed = BUF(a); ring = XOR(a, feed); fb = BUF(ring)
// and the fault rewires feed's fanin to fb. With a = 1 the loop inverts
// itself forever.
struct RingDesign {
  Netlist nl;
  NetId a, feed, ring, fb;
};

RingDesign ringBase() {
  RingDesign d;
  NetlistBuilder b;
  d.a = b.input("a");
  d.feed = b.buf(d.a);
  d.ring = b.xorGate(d.a, d.feed);
  d.fb = b.buf(d.ring);
  b.output(d.ring, "y");
  d.nl = b.take();
  return d;
}

FaultSpec ringBridge(const RingDesign& d) {
  FaultSpec spec;
  spec.kind = FaultKind::Bridge;
  spec.net = d.feed;
  spec.pin = 0;
  spec.bridgeTo = d.fb;
  return spec;
}

TEST(Validate, FlagsCombinationalCycleFromBridgeFault) {
  const RingDesign d = ringBase();
  EXPECT_TRUE(validate(d.nl).ok());

  const DelayModel dm(d.nl, noJitter());
  const FaultedDesign f = FaultInjector(d.nl, dm).apply(ringBridge(d));
  const ValidationReport rep = validate(f.netlist);
  EXPECT_FALSE(rep.ok());
  bool cycleFlagged = false;
  for (const std::string& p : rep.problems) {
    cycleFlagged |= p.find("combinational cycle") != std::string::npos;
  }
  EXPECT_TRUE(cycleFlagged) << "cycle must be named in the report";
}

TEST(Watchdog, OscillatingNetlistThrowsSimDivergedWithinBudget) {
  const RingDesign d = ringBase();
  const DelayModel dm(d.nl, noJitter());
  const FaultedDesign f = FaultInjector(d.nl, dm).apply(ringBridge(d));
  const DelayModel fdm(f.netlist, noJitter());

  SimOptions opts;
  opts.maxEvents = 10000;
  EventSim sim(f.netlist, fdm, opts);
  sim.settle({0});
  try {
    sim.run({1});
    FAIL() << "oscillation must trip the watchdog";
  } catch (const SimDiverged& e) {
    EXPECT_GT(e.eventsProcessed(), opts.maxEvents);
    EXPECT_GT(e.simTimePs(), 0.0);
  }

  // Time budget variant: same oscillator, bounded by simulated time.
  SimOptions topts;
  topts.maxTimePs = 500.0;
  EventSim tsim(f.netlist, fdm, topts);
  tsim.settle({0});
  EXPECT_THROW(tsim.run({1}), SimDiverged);

  // The simulator is reusable after divergence via settle().
  sim.settle({0});
  EXPECT_TRUE(sim.run({0}).empty());
}

TEST(Watchdog, NoBehaviouralChangeOnConvergentRuns) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());

  SimOptions plain;
  SimOptions guarded;
  guarded.maxEvents = 1u << 20;
  guarded.maxTimePs = 1e9;
  EventSim simPlain(sbox->netlist(), dm, plain);
  EventSim simGuarded(sbox->netlist(), dm, guarded);

  Prng rngA(42), rngB(42);
  simPlain.settle(sbox->encode(0, rngA));
  simGuarded.settle(sbox->encode(0, rngB));
  for (int step = 0; step < 8; ++step) {
    const std::uint8_t cls = static_cast<std::uint8_t>(step * 2 + 1);
    const auto finA = sbox->encode(cls, rngA);
    const auto finB = sbox->encode(cls, rngB);
    ASSERT_EQ(finA, finB);
    const auto trA = simPlain.run(finA);
    const auto trB = simGuarded.run(finB);
    ASSERT_EQ(trA.size(), trB.size());
    for (std::size_t i = 0; i < trA.size(); ++i) {
      EXPECT_DOUBLE_EQ(trA[i].timePs, trB[i].timePs);
      EXPECT_EQ(trA[i].net, trB[i].net);
      EXPECT_EQ(trA[i].newValue, trB[i].newValue);
      EXPECT_DOUBLE_EQ(trA[i].weight, trB[i].weight);
    }
  }
}

bool sameTraceSet(const TraceSet& x, const TraceSet& y) {
  if (x.size() != y.size() || x.numSamples() != y.numSamples()) return false;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x.label(i) != y.label(i)) return false;
    for (std::uint32_t s = 0; s < x.numSamples(); ++s) {
      if (x.trace(i)[s] != y.trace(i)[s]) return false;
    }
  }
  return true;
}

TEST(FaultCampaign, EmptyFaultListReproducesBaselineBitIdentically) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel power(sbox->netlist());

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 2;
  cfg.analyzeLeakage = false;
  const FaultCampaignResult res =
      runFaultCampaign(*sbox, dm, power, {}, cfg);
  EXPECT_TRUE(res.reports.empty());

  AcquisitionConfig acq;
  acq.tracesPerClass = cfg.tracesPerClass;
  acq.seed = cfg.seed;
  EventSim sim(sbox->netlist(), dm);  // no watchdog at all
  const TraceSet plain = acquire(*sbox, sim, power, acq);
  EXPECT_TRUE(sameTraceSet(res.baseline, plain))
      << "watchdog-budgeted campaign baseline must be bit-identical";
}

TEST(FaultCampaign, ClassifiesStuckMaskWiresAndIsThreadInvariant) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel power(sbox->netlist());

  const std::vector<NetId> masks = maskWireNets(*sbox);
  ASSERT_FALSE(masks.empty());
  // Two wires (4 faults) keep the test fast.
  const std::vector<FaultSpec> faults =
      stuckAtFaults({masks.front(), masks.back()});

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 2;
  auto run = [&](std::uint32_t threads) {
    cfg.numThreads = threads;
    return runFaultCampaign(*sbox, dm, power, faults, cfg);
  };
  const FaultCampaignResult r1 = run(1);
  const FaultCampaignResult r4 = run(4);

  ASSERT_EQ(r1.reports.size(), faults.size());
  for (std::size_t j = 0; j < faults.size(); ++j) {
    const FaultReport& rep = r1.reports[j];
    EXPECT_EQ(rep.counts.total(), 16u * cfg.tracesPerClass);
    EXPECT_EQ(rep.counts.diverged, 0u) << rep.description;
    // A stuck mask wire must not go entirely unnoticed at the outputs.
    EXPECT_NE(rep.classification, FaultDetection::MaskedOut)
        << rep.description;

    // Thread invariance: identical reports for any worker count.
    const FaultReport& rep4 = r4.reports[j];
    EXPECT_EQ(rep.classification, rep4.classification);
    EXPECT_EQ(rep.counts.maskedOut, rep4.counts.maskedOut);
    EXPECT_EQ(rep.counts.detectedByDecode, rep4.counts.detectedByDecode);
    EXPECT_EQ(rep.counts.silentCorruption, rep4.counts.silentCorruption);
    EXPECT_EQ(rep.totalLeakage, rep4.totalLeakage);
    EXPECT_EQ(rep.singleBitLeakage, rep4.singleBitLeakage);
  }
  EXPECT_TRUE(sameTraceSet(r1.baseline, r4.baseline));
}

// Minimal MaskedSbox wrapper around the ring design: outputs are buffered
// copies of the inputs plus the (constant-0) ring node; decode reads the
// *inputs*, so it always produces the correct PRESENT value and share
// corruption stays silent — exactly the silent-corruption/divergence
// corner the campaign must degrade gracefully on.
class RingSbox final : public MaskedSbox {
 public:
  RingSbox() {
    NetlistBuilder b;
    std::vector<NetId> x;
    for (int i = 0; i < 4; ++i) x.push_back(b.input("x" + std::to_string(i)));
    feed_ = b.buf(x[0]);
    ring_ = b.xorGate(x[0], feed_);
    fb_ = b.buf(ring_);
    b.output(ring_, "ring");
    for (int i = 0; i < 4; ++i) {
      b.output(b.buf(x[static_cast<std::size_t>(i)]),
               "y" + std::to_string(i));
    }
    nl_ = b.take();
  }
  SboxStyle style() const override { return SboxStyle::Lut; }
  int randomBits() const override { return 0; }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng&) const override {
    std::vector<std::uint8_t> bits;
    appendNibbleBits(bits, plain);
    return bits;
  }
  std::uint8_t decode(const std::vector<std::uint8_t>&,
                      const std::vector<std::uint8_t>& inputs) const override {
    return kPresentSbox[readNibbleBits(inputs, 0)];
  }

  NetId feed() const { return feed_; }
  NetId fb() const { return fb_; }

 private:
  NetId feed_ = kInvalidNet, ring_ = kInvalidNet, fb_ = kInvalidNet;
};

TEST(FaultCampaign, OscillatingFaultIsClassifiedDivergedAndTerminates) {
  const RingSbox sbox;
  const DelayModel dm(sbox.netlist(), noJitter());
  const PowerModel power(sbox.netlist());

  FaultSpec bridge;
  bridge.kind = FaultKind::Bridge;
  bridge.net = sbox.feed();
  bridge.pin = 0;
  bridge.bridgeTo = sbox.fb();

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 2;
  cfg.maxEventsPerRun = 5000;
  cfg.analyzeLeakage = false;
  const FaultCampaignResult res =
      runFaultCampaign(sbox, dm, power, {bridge}, cfg);

  ASSERT_EQ(res.reports.size(), 1u);
  const FaultReport& rep = res.reports[0];
  EXPECT_EQ(rep.classification, FaultDetection::Diverged);
  // Classes with bit 0 set arm the ring (x0 rises); the other half settle.
  EXPECT_EQ(rep.counts.diverged, 8u * cfg.tracesPerClass);
  EXPECT_EQ(rep.counts.total(), 16u * cfg.tracesPerClass);
  EXPECT_GT(rep.maxWatchdogEvents, cfg.maxEventsPerRun);
}

TEST(FaultCampaign, JournalsOneWatchdogTripPerDivergedFault) {
  // The oscillating bridge diverges on half its traces, the slowed output
  // buffer on none: the campaign journals one watchdog-trip for the
  // bridge, not one per trace, and each fault's call journals its own
  // acquire-start, as every acquisition does.
  const RingSbox sbox;
  const DelayModel dm(sbox.netlist(), noJitter());
  const PowerModel power(sbox.netlist());
  FaultSpec bridge;
  bridge.kind = FaultKind::Bridge;
  bridge.net = sbox.feed();
  bridge.pin = 0;
  bridge.bridgeTo = sbox.fb();
  const std::vector<FaultSpec> faults = {
      {FaultKind::DelayInflation, sbox.netlist().outputs().back(), 4.0, 0,
       kInvalidNet},
      bridge};

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 2;
  cfg.maxEventsPerRun = 5000;
  cfg.analyzeLeakage = false;
  obs::EventJournal& journal = obs::EventJournal::global();
  const std::uint64_t before = journal.emitted();
  const FaultCampaignResult res =
      runFaultCampaign(sbox, dm, power, faults, cfg);
  ASSERT_EQ(res.reports[0].counts.diverged, 0u);
  ASSERT_GT(res.reports[1].counts.diverged, 0u);

  std::vector<std::map<std::string, std::string>> trips;
  int classifiedStarts = 0;
  for (const obs::JournalEvent& ev :
       journal.tail(journal.emitted() - before)) {
    std::map<std::string, std::string> fields(ev.fields.begin(),
                                              ev.fields.end());
    if (ev.kind == "watchdog-trip") trips.push_back(fields);
    if (ev.kind == "acquire-start" &&
        fields["label"] == "acquire-classified") {
      ++classifiedStarts;
    }
  }
  EXPECT_EQ(classifiedStarts, 2);
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0]["fault"], "1");
  EXPECT_EQ(trips[0]["diverged"],
            std::to_string(res.reports[1].counts.diverged));
  EXPECT_EQ(trips[0]["max_events"],
            std::to_string(res.reports[1].maxWatchdogEvents));
}

// ---------------------------------------------------------------------------
// Campaign vs a per-trace reference oracle. The campaign runs index-ordered
// faults on the batch engine and falls back to EventSim for forward
// bridges and for lane groups with a watchdog trip; the oracle below is the
// campaign protocol written out trace by trace on EventSim alone.

struct OracleFault {
  FaultTraceCounts counts;
  std::uint64_t maxWatchdogEvents = 0;
  TraceSet traces;
  std::vector<std::uint64_t> eventsPerTrace;  ///< popped events, per trace
};

/// The campaign protocol on `design` under `seed`: trace i draws init,
/// final encoding and noise seed from derive(seed, i), runs on EventSim
/// under the campaign's watchdog budget, and is classified against the
/// fault-free zero-delay outputs.
OracleFault oracleRun(const MaskedSbox& sbox, const FaultedDesign& design,
                      const PowerModel& power, const FaultCampaignConfig& cfg,
                      std::uint64_t seed) {
  SimOptions opts = cfg.sim;
  if (opts.maxEvents == 0) opts.maxEvents = cfg.maxEventsPerRun;
  EventSim sim(design.netlist, design.delays, opts);
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, seed);
  OracleFault o{{}, 0, TraceSet(power.options().numSamples), {}};
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Prng rng(deriveStreamSeed(seed, i));
    const auto init = sbox.encode(kInitialValue, rng);
    const auto fin = sbox.encode(schedule[i], rng);
    const auto refOut = sbox.netlist().evaluateOutputs(fin);
    const std::uint64_t before = sim.stats().eventsProcessed;
    std::vector<Transition> transitions;
    try {
      sim.settle(init);
      transitions = sim.run(fin);
    } catch (const SimDiverged& d) {
      ++o.counts.diverged;
      o.maxWatchdogEvents = std::max(o.maxWatchdogEvents, d.eventsProcessed());
      o.eventsPerTrace.push_back(sim.stats().eventsProcessed - before);
      continue;
    }
    o.eventsPerTrace.push_back(sim.stats().eventsProcessed - before);
    const auto out = sim.outputValues();
    if (out == refOut) {
      ++o.counts.maskedOut;
    } else {
      bool same = false;
      try {
        same = sbox.decode(out, fin) == sbox.decode(refOut, fin);
      } catch (const std::exception&) {
      }
      ++(same ? o.counts.silentCorruption : o.counts.detectedByDecode);
    }
    o.traces.add(schedule[i], power.sample(transitions, rng.next() | 1ULL));
  }
  return o;
}

/// Fault j of a campaign: the protocol under derive(derive(seed, ~1), j).
OracleFault oracleFault(const MaskedSbox& sbox, const DelayModel& dm,
                        const PowerModel& power, const FaultSpec& spec,
                        const FaultCampaignConfig& cfg, std::size_t j) {
  return oracleRun(sbox, FaultInjector(sbox.netlist(), dm).apply(spec), power,
                   cfg, deriveStreamSeed(deriveStreamSeed(cfg.seed, ~1ULL), j));
}

void expectCampaignMatchesOracle(const MaskedSbox& sbox, const DelayModel& dm,
                                 const PowerModel& power,
                                 const std::vector<FaultSpec>& faults,
                                 FaultCampaignConfig cfg) {
  cfg.keepFaultTraces = true;
  cfg.analyzeLeakage = false;
  std::vector<OracleFault> oracle;
  for (std::size_t j = 0; j < faults.size(); ++j) {
    oracle.push_back(oracleFault(sbox, dm, power, faults[j], cfg, j));
  }
  for (std::uint32_t threads : {1u, 4u}) {
    cfg.numThreads = threads;
    const FaultCampaignResult res =
        runFaultCampaign(sbox, dm, power, faults, cfg);
    ASSERT_EQ(res.reports.size(), faults.size());
    for (std::size_t j = 0; j < faults.size(); ++j) {
      const FaultReport& r = res.reports[j];
      const OracleFault& o = oracle[j];
      SCOPED_TRACE(r.description + ", " + std::to_string(threads) +
                   " threads");
      EXPECT_EQ(r.counts.maskedOut, o.counts.maskedOut);
      EXPECT_EQ(r.counts.detectedByDecode, o.counts.detectedByDecode);
      EXPECT_EQ(r.counts.silentCorruption, o.counts.silentCorruption);
      EXPECT_EQ(r.counts.diverged, o.counts.diverged);
      EXPECT_EQ(r.maxWatchdogEvents, o.maxWatchdogEvents);
      EXPECT_TRUE(sameTraceSet(res.faultTraces[j], o.traces));
    }
  }
}

TEST(FaultCampaign, MatchesReferenceOracleForEveryFaultKind) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel power(sbox->netlist());
  // Every index-ordered kind runs on the batch engine; the forward bridge
  // stays on EventSim.
  std::vector<FaultSpec> faults = fixtures::indexOrderedFaults(sbox->netlist());
  faults.push_back(fixtures::acyclicForwardBridge(sbox->netlist()));

  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 5;  // 80 traces: one full and one partial lane group
  cfg.sim = ExperimentConfig().sim;
  expectCampaignMatchesOracle(*sbox, dm, power, faults, cfg);

  // The ring bridge closes a loop: EventSim only, half its traces diverge.
  const RingSbox ring;
  const DelayModel ringDm(ring.netlist(), noJitter());
  const PowerModel ringPower(ring.netlist());
  FaultSpec bridge;
  bridge.kind = FaultKind::Bridge;
  bridge.net = ring.feed();
  bridge.pin = 0;
  bridge.bridgeTo = ring.fb();
  cfg.maxEventsPerRun = 5000;
  expectCampaignMatchesOracle(ring, ringDm, ringPower, {bridge}, cfg);
}

// A quiet design with a loud fault: x0 drives a 64-buffer chain through
// AND(x0, en) with en = 0, so fault-free runs stay short; stuck-at-1 on en
// (an index-ordered overlay) lets every x0 toggle ripple down the chain.
// Outputs are buffered inputs plus the chain end; decode reads the inputs.
class GatedChainSbox final : public MaskedSbox {
 public:
  GatedChainSbox() {
    NetlistBuilder b;
    std::vector<NetId> x;
    for (int i = 0; i < 4; ++i) x.push_back(b.input("x" + std::to_string(i)));
    en_ = b.const0();
    NetId chain = b.andGate({x[0], en_});
    for (int i = 0; i < 64; ++i) chain = b.buf(chain);
    b.output(chain, "chain");
    for (int i = 0; i < 4; ++i) {
      b.output(b.buf(x[static_cast<std::size_t>(i)]),
               "y" + std::to_string(i));
    }
    nl_ = b.take();
  }
  SboxStyle style() const override { return SboxStyle::Lut; }
  int randomBits() const override { return 0; }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng&) const override {
    std::vector<std::uint8_t> bits;
    appendNibbleBits(bits, plain);
    return bits;
  }
  std::uint8_t decode(const std::vector<std::uint8_t>&,
                      const std::vector<std::uint8_t>& inputs) const override {
    return kPresentSbox[readNibbleBits(inputs, 0)];
  }

  NetId en() const { return en_; }

 private:
  NetId en_ = kInvalidNet;
};

TEST(FaultCampaign, WatchdogTripsInALaneGroupFallBackToReference) {
  const GatedChainSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());
  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 5;  // 80 traces: one full and one partial lane group
  cfg.sim = ExperimentConfig().sim;

  // Fault 0 is loud (x0 toggles ripple down the chain) and eligible for
  // the batch engine; fault 1 only slows an output buffer.
  const std::vector<FaultSpec> faults = {
      {FaultKind::StuckAt1, sbox.en(), 0.0, 0, kInvalidNet},
      {FaultKind::DelayInflation, sbox.netlist().outputs().back(), 4.0, 0,
       kInvalidNet}};
  ASSERT_TRUE(
      FaultInjector(sbox.netlist(), dm).apply(faults[0]).netlist
          .isIndexOrdered());

  // A budget above every fault-free run (the baseline acquisition runs
  // under it too) and below the loud fault's chain runs.
  const OracleFault baseline = oracleRun(
      sbox, FaultedDesign{sbox.netlist(), dm}, power, cfg, cfg.seed);
  const OracleFault loud = oracleFault(sbox, dm, power, faults[0], cfg, 0);
  const std::uint64_t quietMax = *std::max_element(
      baseline.eventsPerTrace.begin(), baseline.eventsPerTrace.end());
  const std::uint64_t loudMax =
      *std::max_element(loud.eventsPerTrace.begin(), loud.eventsPerTrace.end());
  ASSERT_GT(loudMax, quietMax + 32);
  cfg.maxEventsPerRun = quietMax + 16;

  // Traces whose x0 toggles trip in every lane group; the rest of each
  // group completes on the reference engine.
  const OracleFault tripped = oracleFault(sbox, dm, power, faults[0], cfg, 0);
  EXPECT_GT(tripped.counts.diverged, 0u);
  EXPECT_LT(tripped.counts.diverged, 80u);
  EXPECT_GT(tripped.maxWatchdogEvents, cfg.maxEventsPerRun);
  expectCampaignMatchesOracle(sbox, dm, power, faults, cfg);
}

TEST(FaultCampaign, ClassifiedTripsAreThreadAndEngineInvariant) {
  // The loud fault's 16 distinct stimuli, half of which trip: at 4 workers
  // each batch worker re-runs its tripping group on its own reference
  // clone. Counts, the largest event count and the traces must not depend
  // on the workers or the engine.
  const GatedChainSbox sbox;
  const DelayModel dm(sbox.netlist());
  const PowerModel power(sbox.netlist());
  const FaultedDesign loud = FaultInjector(sbox.netlist(), dm)
                                 .apply({FaultKind::StuckAt1, sbox.en(), 0.0,
                                         0, kInvalidNet});
  const CompiledDesign faultFree(sbox.netlist(), dm, power);
  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 12;
  cfg.sim = ExperimentConfig().sim;
  const OracleFault quiet = oracleRun(
      sbox, FaultedDesign{sbox.netlist(), dm}, power, cfg, cfg.seed);
  SimOptions opts = cfg.sim;
  opts.maxEvents = *std::max_element(quiet.eventsPerTrace.begin(),
                                     quiet.eventsPerTrace.end()) +
                   16;

  AcquisitionConfig acq;
  acq.tracesPerClass = cfg.tracesPerClass;
  ClassifiedAcquisition first;
  TraceSet firstTraces(power.options().numSamples);
  for (SimEngine engine : {SimEngine::Auto, SimEngine::Reference}) {
    for (std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine == SimEngine::Auto ? "auto, "
                                                         : "reference, ") +
                   std::to_string(threads) + " threads");
      acq.engine = engine;
      acq.numThreads = threads;
      EventSim sim(loud.netlist, loud.delays, opts);
      TraceSet traces(power.options().numSamples);
      const ClassifiedAcquisition run = acquireClassified(
          sbox, faultFree, sim, power, acq,
          [&](std::uint8_t label, const double* samples) {
            traces.add(label, samples);
          });
      EXPECT_GT(run.counts.diverged, 0u);
      EXPECT_EQ(traces.size(), run.counts.total() - run.counts.diverged);
      if (engine == SimEngine::Auto && threads == 1) {
        first = run;
        firstTraces = traces;
        continue;
      }
      EXPECT_EQ(run.counts.maskedOut, first.counts.maskedOut);
      EXPECT_EQ(run.counts.detectedByDecode, first.counts.detectedByDecode);
      EXPECT_EQ(run.counts.silentCorruption, first.counts.silentCorruption);
      EXPECT_EQ(run.counts.diverged, first.counts.diverged);
      EXPECT_EQ(run.maxWatchdogEvents, first.maxWatchdogEvents);
      EXPECT_TRUE(sameTraceSet(traces, firstTraces));
    }
  }
}

TEST(FaultCampaign, TripsInsideSortedWindowsMatchTheOracle) {
  // GLUT at 20 traces per class has 320 nearly distinct stimuli, so a
  // one-worker call sorts its first 256 by final encoding before cutting
  // lane groups. A budget at the median fault-free run trips about half of
  // them, inside sorted groups: the fallback must judge and sample every
  // stimulus at its own traces.
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel power(sbox->netlist());
  const CompiledDesign faultFree(sbox->netlist(), dm, power);
  const FaultSpec stuck = stuckAtFaults(maskWireNets(*sbox))[0];
  const FaultedDesign design = FaultInjector(sbox->netlist(), dm).apply(stuck);
  FaultCampaignConfig cfg;
  cfg.tracesPerClass = 20;
  cfg.sim = ExperimentConfig().sim;
  std::vector<std::uint64_t> events =
      oracleRun(*sbox, FaultedDesign{sbox->netlist(), dm}, power, cfg,
                cfg.seed)
          .eventsPerTrace;
  std::nth_element(events.begin(), events.begin() + events.size() / 2,
                   events.end());
  cfg.maxEventsPerRun = events[events.size() / 2];
  const OracleFault oracle = oracleRun(*sbox, design, power, cfg, cfg.seed);
  ASSERT_GT(oracle.counts.diverged, 16u);
  ASSERT_LT(oracle.counts.diverged, 16u * cfg.tracesPerClass - 16u);

  SimOptions opts = cfg.sim;
  opts.maxEvents = cfg.maxEventsPerRun;
  AcquisitionConfig acq;
  acq.tracesPerClass = cfg.tracesPerClass;
  for (std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    acq.numThreads = threads;
    EventSim sim(design.netlist, design.delays, opts);
    TraceSet traces(power.options().numSamples);
    const ClassifiedAcquisition run = acquireClassified(
        *sbox, faultFree, sim, power, acq,
        [&](std::uint8_t label, const double* samples) {
          traces.add(label, samples);
        });
    EXPECT_EQ(run.counts.maskedOut, oracle.counts.maskedOut);
    EXPECT_EQ(run.counts.detectedByDecode, oracle.counts.detectedByDecode);
    EXPECT_EQ(run.counts.silentCorruption, oracle.counts.silentCorruption);
    EXPECT_EQ(run.counts.diverged, oracle.counts.diverged);
    EXPECT_EQ(run.maxWatchdogEvents, oracle.maxWatchdogEvents);
    EXPECT_TRUE(sameTraceSet(traces, oracle.traces));
  }
}

TEST(FaultCampaign, MaskWireHeuristicMatchesDeclaredRandomness) {
  // Styles with explicit mask/randomness inputs must expose them; the
  // unprotected ones have none.
  EXPECT_TRUE(maskWireNets(*makeSbox(SboxStyle::Lut)).empty());
  EXPECT_TRUE(maskWireNets(*makeSbox(SboxStyle::Opt)).empty());
  EXPECT_EQ(maskWireNets(*makeSbox(SboxStyle::Glut)).size(), 8u);  // mi + mo
  EXPECT_FALSE(maskWireNets(*makeSbox(SboxStyle::Rsm)).empty());
  EXPECT_FALSE(maskWireNets(*makeSbox(SboxStyle::Isw)).empty());
  EXPECT_EQ(maskWireNets(*makeSbox(SboxStyle::Ti)).size(), 12u);  // s1..s3
}

}  // namespace
}  // namespace lpa
