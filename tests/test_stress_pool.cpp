// Pooled stress-profile suite.
//
// SboxExperiment::stressProfile runs its cycles on acquisition.numThreads
// workers: it draws every encoding first, then runs cycle c as settle on
// encoding c and run on encoding c + 1, as lane c mod 64 of lane group
// c / 64 on the batch engine, and merges per-worker StressAccumulators
// (core/experiment.h). These tests pin the result to the chained loop it
// replaces — one simulator running every encoding in turn — bit for bit,
// check which engine runs the cycles, and check how a failing cycle is
// reported.

#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "aging/stress.h"
#include "core/experiment.h"
#include "obs/metrics.h"
#include "sim/batch_sim.h"
#include "trace/prng.h"
#include "trace/sharded_pool.h"

namespace lpa {
namespace {

/// The chained loop: settle on the first encoding, then run each next one
/// from the state the previous run left, accounting every run's
/// transitions and settled state.
StressProfile chainedProfile(const MaskedSbox& sbox, const DelayModel& dm,
                             const SimOptions& opts, std::uint32_t cycles,
                             std::uint64_t seed) {
  const Netlist& nl = sbox.netlist();
  StressAccumulator acc(nl.numGates());
  Prng rng(seed);
  EventSim sim(nl, dm, opts);
  sim.settle(sbox.encode(rng.nibble(), rng));
  for (std::uint32_t c = 0; c < cycles; ++c) {
    const std::vector<std::uint8_t> next = sbox.encode(rng.nibble(), rng);
    acc.addTransitions(sim.run(next));
    std::vector<std::uint8_t> state(nl.numGates());
    for (NetId i = 0; i < nl.numGates(); ++i) state[i] = sim.value(i);
    acc.addSettledState(state);
  }
  return acc.finalize();
}

/// Bitwise equality of two per-net vectors.
void expectBitEqual(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&want[i], &got[i], sizeof(double)))
        << what << " net " << i << ": " << want[i] << " vs " << got[i];
  }
}

void expectPooledEqualsChain(DelayKind kind) {
  for (SboxStyle style : allSboxStyles()) {
    for (std::uint32_t cycles : {0u, 1u, 37u, 512u}) {
      ExperimentConfig cfg;
      cfg.sim.kind = kind;
      cfg.stressCycles = cycles;
      cfg.observe = false;
      const auto sbox = makeSbox(style);
      const DelayModel dm(sbox->netlist(), cfg.delay);
      const StressProfile chain =
          chainedProfile(*sbox, dm, cfg.sim, cycles, cfg.stressSeed);
      for (std::uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(std::string(sbox->name()) + ", " +
                     std::to_string(cycles) + " cycles, " +
                     std::to_string(threads) + " threads");
        cfg.acquisition.numThreads = threads;
        SboxExperiment exp(style, cfg);
        const StressProfile& pooled = exp.stressProfile();
        expectBitEqual(chain.dutyHigh, pooled.dutyHigh, "dutyHigh");
        expectBitEqual(chain.togglesPerCycle, pooled.togglesPerCycle,
                       "togglesPerCycle");
      }
    }
  }
}

TEST(StressProfilePool, TransportMatchesTheChainedLoop) {
  expectPooledEqualsChain(DelayKind::Transport);
}

TEST(StressProfilePool, InertialMatchesTheChainedLoop) {
  expectPooledEqualsChain(DelayKind::Inertial);
}

TEST(StressProfilePool, CyclesRunAsBatchEngineLanes) {
  // Every cycle is one batch-engine lane; the reference engine runs none.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (SboxStyle style : {SboxStyle::Glut, SboxStyle::RsmRom}) {
    ExperimentConfig cfg;
    cfg.stressCycles = 512;
    cfg.acquisition.numThreads = 4;
    SboxExperiment exp(style, cfg);
    const std::uint64_t batchRuns = reg.counter("sim.batch.runs").value();
    const std::uint64_t batches = reg.counter("sim.batch.batches").value();
    const std::uint64_t runs = reg.counter("sim.runs").value();
    exp.stressProfile();
    EXPECT_EQ(reg.counter("sim.batch.runs").value() - batchRuns,
              cfg.stressCycles);
    EXPECT_EQ(reg.counter("sim.batch.batches").value() - batches,
              cfg.stressCycles / BatchSim::kLanes);
    EXPECT_EQ(reg.counter("sim.runs").value() - runs, 0u);
  }
}

TEST(StressProfilePool, FailingCycleIsNamedByTheWorkerError) {
  // A watchdog budget that some cycles exceed: the lowest failing cycle
  // wins at every thread count, and the SimDiverged it threw is nested.
  ExperimentConfig cfg;
  cfg.stressCycles = 64;
  cfg.observe = false;
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist(), cfg.delay);
  std::vector<std::uint64_t> events;
  {
    Prng rng(cfg.stressSeed);
    EventSim sim(sbox->netlist(), dm, cfg.sim);
    sim.settle(sbox->encode(rng.nibble(), rng));
    for (std::uint32_t c = 0; c < cfg.stressCycles; ++c) {
      const std::uint64_t before = sim.stats().eventsProcessed;
      sim.run(sbox->encode(rng.nibble(), rng));
      events.push_back(sim.stats().eventsProcessed - before);
    }
  }
  // Cycle 0's event count as the budget: the first busier cycle fails.
  std::size_t firstOver = 1;
  while (firstOver < events.size() && events[firstOver] <= events[0]) {
    ++firstOver;
  }
  ASSERT_LT(firstOver, events.size());
  cfg.sim.maxEvents = events[0];
  for (std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    cfg.acquisition.numThreads = threads;
    SboxExperiment exp(SboxStyle::Glut, cfg);
    try {
      exp.stressProfile();
      ADD_FAILURE() << "the stress profile must fail";
    } catch (const WorkerError& e) {
      EXPECT_EQ(e.index(), firstOver) << e.what();
      EXPECT_NE(std::string(e.what()).find(
                    "stress cycle " + std::to_string(firstOver) +
                    " (style GLUT)"),
                std::string::npos)
          << e.what();
      try {
        std::rethrow_if_nested(e);
        ADD_FAILURE() << "no nested exception";
      } catch (const SimDiverged&) {
      }
    }
  }
}

}  // namespace
}  // namespace lpa
