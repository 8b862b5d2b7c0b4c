#pragma once
// Shared harness of the three-way differential engine fuzzer
// (tests/test_engine_fuzz.cpp — tier1 smoke budget — and
// tests/test_engine_fuzz_deep.cpp — the nightly slow campaign).
//
// Each case derives everything from one case seed: a random small netlist
// (built through NetlistBuilder and accepted by validateOrThrow, so the
// generator can only produce netlists the library itself considers legal),
// random delay/sim/power options covering both delay kinds, partial-swing
// weighting on and off, pulses of 15-100 ps (1-6 sample bins), aged and
// fresh devices, an occasional tight event watchdog, and a random lane
// count in [1, 64]. The same per-lane stimuli
// are then driven through all three engines —
//
//   EventSim      (reference, sim/event_sim.h)
//   CompiledSim   (scalar fast path, sim/compiled_sim.h)
//   BatchSim      (bit-parallel batch engine, sim/batch_sim.h)
//
// — and every observable is cross-checked bit-for-bit: settled net values,
// the committed transition list (times, nets, values, partial-swing
// weights), output values, per-run SimStats, SimDiverged watchdog payloads,
// and the fused power traces against PowerModel::sample of the reference
// run. Any mismatch fails the test with the case seed in the scope trace,
// so a failure reproduces with  LPA_FUZZ_SEED=<master> LPA_FUZZ_CASES=...
// (case seeds are deriveStreamSeed(master, i), independent of the budget).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "netlist/builder.h"
#include "netlist/validate.h"
#include "power/power_model.h"
#include "sim/batch_sim.h"
#include "sim/compiled_sim.h"
#include "sim/delay_model.h"
#include "sim/event_sim.h"
#include "trace/prng.h"

namespace lpa {
namespace fuzz {

/// Reads an environment override for the fuzz campaign; returns `fallback`
/// when the variable is unset or unparsable.
inline std::uint64_t envOr(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 0);
  if (end == raw) return fallback;
  return static_cast<std::uint64_t>(v);
}

/// A random legal combinational netlist: 2-6 inputs, 5-40 gates drawn from
/// the full cell library (including the occasional constant source),
/// fanins drawn uniformly from all earlier nets (duplicates allowed — the
/// library permits them and the engines must agree on them too). Unused
/// inputs get an observer buffer, then every sink-less net becomes a
/// primary output, which satisfies the validator's reachability rule.
inline Netlist randomNetlist(Prng& rng) {
  NetlistBuilder b;
  const std::uint32_t numInputs = 2 + rng.below(5);
  std::vector<NetId> nets;
  for (std::uint32_t i = 0; i < numInputs; ++i) {
    nets.push_back(b.input(std::string("i").append(std::to_string(i))));
  }

  std::vector<std::uint32_t> fanout(nets.size(), 0);
  auto pick = [&]() {
    const NetId n = nets[rng.below(static_cast<std::uint32_t>(nets.size()))];
    ++fanout[n];
    return n;
  };
  auto pushNet = [&](NetId n) {
    nets.push_back(n);
    fanout.resize(nets.size(), 0);
  };

  const std::uint32_t numGates = 5 + rng.below(36);
  for (std::uint32_t g = 0; g < numGates; ++g) {
    const std::uint32_t kind = rng.below(20);
    if (kind == 0) {
      pushNet(rng.bit() ? b.const1() : b.const0());
    } else if (kind <= 2) {
      pushNet(b.buf(pick()));
    } else if (kind <= 5) {
      pushNet(b.inv(pick()));
    } else if (kind <= 8) {
      pushNet(b.xorGate(pick(), pick()));
    } else if (kind <= 10) {
      pushNet(b.xnorGate(pick(), pick()));
    } else {
      std::vector<NetId> ins;
      const std::uint32_t width = 2 + rng.below(3);
      for (std::uint32_t i = 0; i < width; ++i) ins.push_back(pick());
      switch (kind % 4) {
        case 0: pushNet(b.andGate(ins)); break;
        case 1: pushNet(b.orGate(ins)); break;
        case 2: pushNet(b.nandGate(ins)); break;
        default: pushNet(b.norGate(ins)); break;
      }
    }
  }

  // Observe dangling inputs through a buffer, then expose every sink-less
  // net as an output.
  for (std::uint32_t i = 0; i < numInputs; ++i) {
    if (fanout[i] == 0) {
      ++fanout[i];
      pushNet(b.buf(i));
    }
  }
  std::uint32_t outIdx = 0;
  for (NetId n = 0; n < nets.size(); ++n) {
    if (fanout[n] == 0) {
      b.output(n, std::string("o").append(std::to_string(outIdx++)));
    }
  }

  Netlist nl = b.take();
  validateOrThrow(nl, "engine fuzzer");
  return nl;
}

inline void expectSameStatsFuzz(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
  EXPECT_EQ(a.committedTransitions, b.committedTransitions);
  EXPECT_EQ(a.cancelledEvents, b.cancelledEvents);
  EXPECT_EQ(a.inertialFiltered, b.inertialFiltered);
  EXPECT_EQ(a.peakQueueDepth, b.peakQueueDepth);
  EXPECT_EQ(a.watchdogMinHeadroom, b.watchdogMinHeadroom);
}

/// Batch lanes report every SimStats field of the scalar engines except
/// peakQueueDepth: BatchSim tracks no per-lane queue depth and leaves it 0.
inline void expectSameLaneStatsFuzz(SimStats ref, const SimStats& lane) {
  ref.peakQueueDepth = 0;
  expectSameStatsFuzz(ref, lane);
}

inline void expectSameTransitionsFuzz(const std::vector<Transition>& a,
                                      const std::vector<Transition>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    EXPECT_EQ(a[i].timePs, b[i].timePs);
    EXPECT_EQ(a[i].net, b[i].net);
    EXPECT_EQ(a[i].newValue, b[i].newValue);
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

/// One differential case. Everything — topology, options, stimuli — is a
/// pure function of `caseSeed`.
inline void runFuzzCase(std::uint64_t caseSeed) {
  Prng rng(caseSeed);
  const Netlist nl = randomNetlist(rng);

  DelayOptions dopts;
  const double loadChoices[] = {0.0, 0.15, 0.3};
  const double jitterChoices[] = {0.0, 0.03, 0.08};
  dopts.loadFactorPerFanout = loadChoices[rng.below(3)];
  dopts.jitterSigma = jitterChoices[rng.below(3)];
  dopts.deviceSeed = rng.next();
  DelayModel dm(nl, dopts);

  PowerOptions popts;
  if (rng.below(4) == 0) popts.noiseSigma = 0.02;
  // Pulses over 1-6 of the 20 ps bins: every shape of the shared-boundary
  // fraction loop (power_detail::forEachPulseBin).
  const double widthChoices[] = {15.0, 30.0, 60.0, 100.0};
  popts.pulseWidthPs = widthChoices[rng.below(4)];
  PowerModel pm(nl, popts);

  // Aged device in a quarter of the cases: non-uniform per-gate slowdown
  // and amplitude attenuation, refreshed into the compiled snapshots.
  if (rng.below(4) == 0) {
    std::vector<double> slow(nl.numGates());
    std::vector<double> dim(nl.numGates());
    for (std::size_t g = 0; g < slow.size(); ++g) {
      slow[g] = 1.0 + 0.002 * static_cast<double>(g % 13);
      dim[g] = 1.0 - 0.001 * static_cast<double>(g % 11);
    }
    dm.setAgingFactors(slow);
    pm.setAgingFactors(dim);
  }

  SimOptions sopts;
  sopts.kind = rng.bit() ? DelayKind::Transport : DelayKind::Inertial;
  const double swingChoices[] = {0.0, 2.0, 4.5};
  sopts.fullSwingFactor = swingChoices[rng.below(3)];
  // An eighth of the cases run under a tight event watchdog to cross-check
  // the SimDiverged path (payload and per-lane attribution).
  const bool watchdog = rng.below(8) == 0;
  if (watchdog) sopts.maxEvents = 1 + rng.below(5);

  const CompiledDesign design(nl, dm, pm);
  const std::uint32_t lanes = 1 + rng.below(BatchSim::kLanes);
  const std::size_t numInputs = nl.inputs().size();

  std::vector<std::vector<std::uint8_t>> v0(lanes);
  std::vector<std::vector<std::uint8_t>> v1(lanes);
  std::vector<std::uint64_t> noiseSeeds(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < numInputs; ++k) {
      v0[l].push_back(rng.bit());
      v1[l].push_back(rng.bit());
    }
    noiseSeeds[l] = rng.next() | 1ULL;
  }

  // Recorded pass: settle, check settled state per lane, run, then compare
  // the full transition record / outputs / stats three ways.
  BatchSim bat(design, sopts);
  bat.settle(v0);
  ASSERT_EQ(bat.activeLanes(), lanes);
  for (std::uint32_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("settled lane " + std::to_string(l));
    EventSim ref(nl, dm, sopts);
    ref.settle(v0[l]);
    for (NetId n = 0; n < nl.numGates(); ++n) {
      ASSERT_EQ(ref.value(n), bat.value(n, l)) << "net " << n;
    }
  }

  bool batDiverged = false;
  std::uint64_t batEvents = 0;
  double batTimePs = 0.0;
  try {
    bat.run(v1);
  } catch (const SimDiverged& e) {
    batDiverged = true;
    batEvents = e.eventsProcessed();
    batTimePs = e.simTimePs();
  }

  if (batDiverged) {
    // The diverged lane's scalar replay must trip the watchdog with the
    // identical payload, and its partial stats must match.
    const int lane = bat.divergedLane();
    ASSERT_GE(lane, 0);
    ASSERT_LT(lane, static_cast<int>(lanes));
    SCOPED_TRACE("diverged lane " + std::to_string(lane));
    EventSim ref(nl, dm, sopts);
    ref.settle(v0[static_cast<std::size_t>(lane)]);
    bool refDiverged = false;
    try {
      ref.run(v1[static_cast<std::size_t>(lane)]);
    } catch (const SimDiverged& e) {
      refDiverged = true;
      EXPECT_EQ(e.eventsProcessed(), batEvents);
      EXPECT_EQ(e.simTimePs(), batTimePs);
    }
    EXPECT_TRUE(refDiverged);
    expectSameLaneStatsFuzz(ref.stats(),
                            bat.laneStats(static_cast<std::uint32_t>(lane)));
    return;  // post-divergence lane records are not contractual
  }

  for (std::uint32_t l = 0; l < lanes; ++l) {
    SCOPED_TRACE("lane " + std::to_string(l));
    EventSim ref(nl, dm, sopts);
    CompiledSim cmp(design, sopts);
    ref.settle(v0[l]);
    cmp.settle(v0[l]);
    std::vector<Transition> refLog;
    std::vector<Transition> cmpLog;
    ASSERT_NO_THROW(refLog = ref.run(v1[l]))
        << "reference diverged where the batch engine converged";
    ASSERT_NO_THROW(cmpLog = cmp.run(v1[l]));
    expectSameTransitionsFuzz(refLog, cmpLog);
    expectSameTransitionsFuzz(refLog, bat.laneTransitions(l));
    EXPECT_EQ(ref.outputValues(), cmp.outputValues());
    EXPECT_EQ(ref.outputValues(), bat.outputValues(l));
    expectSameStatsFuzz(ref.stats(), cmp.stats());
    expectSameLaneStatsFuzz(ref.stats(), bat.laneStats(l));
  }

  // Fused pass: the deposited-and-noised lane traces must equal
  // PowerModel::sample of the reference run bit-for-bit.
  if (!watchdog) {
    BatchSim fused(design, sopts);
    fused.settle(v0);
    fused.runFused(v1, noiseSeeds);
    for (std::uint32_t l = 0; l < lanes; ++l) {
      SCOPED_TRACE("fused lane " + std::to_string(l));
      EventSim ref(nl, dm, sopts);
      ref.settle(v0[l]);
      const std::vector<double> expected =
          pm.sample(ref.run(v1[l]), noiseSeeds[l]);
      const double* got = fused.laneTrace(l);
      for (std::size_t s = 0; s < expected.size(); ++s) {
        ASSERT_EQ(got[s], expected[s]) << "sample " << s;
      }
    }
  }
}

/// Runs `cases` seeded cases off `masterSeed` (both overridable via the
/// LPA_FUZZ_SEED / LPA_FUZZ_CASES environment variables). Prints the master
/// seed so any CI failure is reproducible verbatim.
inline void runFuzzCampaign(std::uint64_t defaultSeed,
                            std::uint64_t defaultCases) {
  const std::uint64_t master = envOr("LPA_FUZZ_SEED", defaultSeed);
  const std::uint64_t cases = envOr("LPA_FUZZ_CASES", defaultCases);
  std::printf("[engine-fuzz] master seed 0x%llx, %llu cases\n",
              static_cast<unsigned long long>(master),
              static_cast<unsigned long long>(cases));
  for (std::uint64_t i = 0; i < cases; ++i) {
    const std::uint64_t caseSeed = deriveStreamSeed(master, i);
    SCOPED_TRACE("case " + std::to_string(i) + " seed 0x" + [&] {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llx",
                    static_cast<unsigned long long>(caseSeed));
      return std::string(buf);
    }());
    runFuzzCase(caseSeed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace fuzz
}  // namespace lpa
