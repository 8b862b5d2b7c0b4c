// Thread-invariance suite for the parallel acquisition engine.
//
// The determinism contract (trace/acquisition.h) promises that the trace
// set is a pure function of the seed: every trace draws its masks and its
// power-noise seed from a stream derived from (seed, traceIndex), so the
// worker count can only change *who* simulates a trace, never *what* the
// trace contains. These tests pin that down bit-for-bit.

#include "trace/acquisition.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/leakage.h"
#include "stats/streaming_leakage.h"
#include "trace/prng.h"

namespace lpa {
namespace {

/// Bitwise equality of two trace sets (labels and samples).
void expectIdentical(const TraceSet& a, const TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.numSamples(), b.numSamples());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.label(i), b.label(i)) << "trace " << i;
    for (std::uint32_t s = 0; s < a.numSamples(); ++s) {
      // EXPECT_EQ, not NEAR: the contract is bit-identity, not closeness.
      ASSERT_EQ(a.trace(i)[s], b.trace(i)[s])
          << "trace " << i << " sample " << s;
    }
  }
}

TEST(StreamDerivation, IsPureAndCollisionFree) {
  EXPECT_EQ(deriveStreamSeed(5, 7), deriveStreamSeed(5, 7));
  // Adjacent streams of one seed, and the same stream of adjacent seeds,
  // must all be distinct (full-avalanche mixing).
  for (std::uint64_t i = 0; i < 64; ++i) {
    for (std::uint64_t j = i + 1; j < 64; ++j) {
      EXPECT_NE(deriveStreamSeed(1, i), deriveStreamSeed(1, j));
      EXPECT_NE(deriveStreamSeed(i, 0), deriveStreamSeed(j, 1));
    }
  }
}

TEST(AcquireParallel, MaskedAcquisitionIsThreadInvariant) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;
  cfg.numThreads = 1;
  const TraceSet one = acquire(*sbox, sim, pm, cfg);
  for (std::uint32_t t : {2u, 3u, 4u}) {
    cfg.numThreads = t;
    const TraceSet many = acquire(*sbox, sim, pm, cfg);
    expectIdentical(one, many);
  }
}

TEST(AcquireParallel, SpectralTotalsMatchToTheLastUlp) {
  const auto sbox = makeSbox(SboxStyle::Isw);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;
  cfg.numThreads = 1;
  const SpectralAnalysis sa1(acquire(*sbox, sim, pm, cfg),
                            EstimatorMode::Raw);
  cfg.numThreads = 4;
  const SpectralAnalysis sa4(acquire(*sbox, sim, pm, cfg),
                            EstimatorMode::Raw);
  // Identical inputs must give identical doubles, not merely close ones.
  EXPECT_EQ(sa1.totalLeakagePower(), sa4.totalLeakagePower());
  EXPECT_EQ(sa1.totalSingleBitLeakage(), sa4.totalSingleBitLeakage());
  EXPECT_EQ(sa1.totalMultiBitLeakage(), sa4.totalMultiBitLeakage());
  for (std::uint32_t u = 0; u < 16; ++u) {
    for (std::uint32_t t = 0; t < sa1.numSamples(); ++t) {
      ASSERT_EQ(sa1.coefficient(u, t), sa4.coefficient(u, t));
    }
  }
}

TEST(AcquireParallel, NoiseIsAFunctionOfTraceIdentity) {
  // The seed-PR's latent bug: the noise seed used to come from the shared
  // sequential generator, tying it to schedule position. With noise turned
  // on, thread-invariance holds only if the noise stream is derived from
  // (seed, traceIndex).
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(sbox->netlist());
  PowerOptions popts;
  popts.noiseSigma = 0.05;
  const PowerModel pm(sbox->netlist(), popts);
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 3;
  cfg.numThreads = 1;
  const TraceSet one = acquire(*sbox, sim, pm, cfg);
  cfg.numThreads = 4;
  const TraceSet four = acquire(*sbox, sim, pm, cfg);
  expectIdentical(one, four);
}

TEST(AcquireParallel, AutoAndOversubscribedThreadCounts) {
  const auto sbox = makeSbox(SboxStyle::Opt);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;  // 32 traces
  cfg.numThreads = 1;
  const TraceSet one = acquire(*sbox, sim, pm, cfg);
  cfg.numThreads = 0;  // auto = hardware concurrency
  expectIdentical(one, acquire(*sbox, sim, pm, cfg));
  cfg.numThreads = 7;  // does not divide the trace count
  expectIdentical(one, acquire(*sbox, sim, pm, cfg));
  cfg.numThreads = 1000;  // more workers than traces
  expectIdentical(one, acquire(*sbox, sim, pm, cfg));
}

TEST(AcquireParallel, KeyedAcquisitionIsThreadInvariant) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.seed = 9;
  cfg.numThreads = 1;
  const TraceSet one = acquireKeyed(*sbox, sim, pm, cfg, 0xB, 96);
  for (std::uint32_t t : {2u, 4u}) {
    cfg.numThreads = t;
    const TraceSet many = acquireKeyed(*sbox, sim, pm, cfg, 0xB, 96);
    expectIdentical(one, many);
  }
}

TEST(AcquireParallel, ExperimentPipelineIsThreadInvariant) {
  // End-to-end through SboxExperiment, including aging applied to the
  // shared DelayModel before the workers clone the simulator.
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 4;
  cfg.stressCycles = 32;
  cfg.acquisition.numThreads = 1;
  SboxExperiment seq(SboxStyle::Ti, cfg);
  cfg.acquisition.numThreads = 4;
  SboxExperiment par(SboxStyle::Ti, cfg);
  for (double months : {0.0, 24.0}) {
    EXPECT_EQ(seq.estimateAt(months, EstimatorMode::Raw).total,
              par.estimateAt(months, EstimatorMode::Raw).total)
        << "at " << months << " months";
  }
}

/// Bitwise equality of every field of two leakage estimates.
void expectSameEstimate(const stats::LeakageEstimate& a,
                        const stats::LeakageEstimate& b) {
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.minClassCount, b.minClassCount);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.singleBit, b.singleBit);
  EXPECT_EQ(a.multiBit, b.multiBit);
  EXPECT_EQ(a.singleBitRatio, b.singleBitRatio);
  for (const auto& [x, y] : {std::pair(a.totalCi, b.totalCi),
                             std::pair(a.singleBitCi, b.singleBitCi),
                             std::pair(a.multiBitCi, b.multiBitCi)}) {
    EXPECT_EQ(x.estimate, y.estimate);
    EXPECT_EQ(x.halfWidth, y.halfWidth);
  }
  for (std::uint32_t u = 0; u < 16; ++u) {
    EXPECT_EQ(a.coefficients[u].energy, b.coefficients[u].energy) << u;
    EXPECT_EQ(a.coefficients[u].halfWidth, b.coefficients[u].halfWidth) << u;
  }
}

TEST(AcquireParallel, StreamedEstimateMatchesFoldedAcquisition) {
  // estimateAt folds traces as the pool delivers them, without a
  // TraceSet. Its estimate must equal StreamingLeakage over acquireAt's
  // TraceSet bit for bit, on every engine and thread count. 21 traces per
  // class = 336 traces: five full lane groups and a 16-lane tail.
  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass = 21;
  cfg.stressCycles = 32;
  for (SboxStyle style : {SboxStyle::Glut, SboxStyle::RsmRom, SboxStyle::Ti}) {
    SboxExperiment reference(style, cfg);
    std::vector<std::pair<SimEngine, std::unique_ptr<SboxExperiment>>> runs;
    for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
      ExperimentConfig forced = cfg;
      forced.acquisition.engine = engine;
      runs.emplace_back(engine,
                        std::make_unique<SboxExperiment>(style, forced));
    }
    for (double months : {0.0, 48.0}) {
      SCOPED_TRACE(std::string(sboxStyleName(style)) + " at " +
                   std::to_string(months) + " months");
      reference.setNumThreads(1);
      const TraceSet traces = reference.acquireAt(months);
      stats::StreamingLeakage folded(traces.numSamples());
      folded.addTraceSet(traces);
      const stats::LeakageEstimate expected = folded.estimate();
      for (auto& [engine, exp] : runs) {
        for (std::uint32_t threads = 1; threads <= 4; ++threads) {
          SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                       ", " + std::to_string(threads) + " threads");
          exp->setNumThreads(threads);
          expectSameEstimate(expected, exp->estimateAt(months));
        }
      }
    }
  }
}

TEST(AcquireParallel, DecodeMismatchPropagatesFromWorkers) {
  // A worker throwing (here: encode/decode mismatch provoked by a corrupt
  // schedule is not constructible from outside, so use mismatched shapes)
  // must surface as an exception, not a crash or a silent partial set.
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  PowerOptions popts;
  popts.numSamples = 10;  // power model shaped for a different window
  const PowerModel pm(sbox->netlist(), popts);
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;
  cfg.numThreads = 4;
  // Traces are stored with pm's sample count, so this is fine — but
  // appending mismatched shapes must throw. Simulate by merging sets of
  // different shapes directly.
  TraceSet a(10), b(12);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  // And the engine itself completes normally on a well-shaped config.
  EXPECT_NO_THROW(acquire(*sbox, sim, pm, cfg));
}

TEST(EventSimClone, ClonesAreIndependentAndEquivalent) {
  const auto sbox = makeSbox(SboxStyle::Opt);
  const DelayModel dm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  Prng rng(3);
  const auto in0 = sbox->encode(0x0, rng);
  const auto in1 = sbox->encode(0x9, rng);
  sim.settle(in0);
  const auto ref = sim.run(in1);
  EventSim copy = sim.clone();
  copy.settle(in0);
  const auto got = copy.run(in1);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].timePs, got[i].timePs);
    EXPECT_EQ(ref[i].net, got[i].net);
    EXPECT_EQ(ref[i].newValue, got[i].newValue);
    EXPECT_EQ(ref[i].weight, got[i].weight);
  }
  // Running the clone must not have disturbed the original.
  sim.settle(in0);
  const auto again = sim.run(in1);
  EXPECT_EQ(again.size(), ref.size());
}

}  // namespace
}  // namespace lpa
