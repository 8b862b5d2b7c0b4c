#include "trace/acquisition.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "obs/profiler.h"
#include "obs/progress.h"
#include "trace/prng.h"

namespace lpa {
namespace {

TEST(Prng, DeterministicAndRangeRespecting) {
  Prng a(1), b(1), c(2);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(Prng(1).next(), c.next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.nibble(), 16);
    EXPECT_LE(a.bit(), 1);
    EXPECT_LT(a.below(7), 7u);
    const double u = a.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Prng, NibblesAreRoughlyUniform) {
  Prng rng(99);
  std::array<int, 16> hist{};
  const int n = 16000;
  for (int i = 0; i < n; ++i) ++hist[rng.nibble()];
  for (int h : hist) {
    EXPECT_GT(h, n / 16 - 200);
    EXPECT_LT(h, n / 16 + 200);
  }
}

TEST(TraceSet, AddAndRetrieve) {
  TraceSet ts(4);
  ts.add(3, {1.0, 2.0, 3.0, 4.0});
  ts.add(3, {3.0, 2.0, 1.0, 0.0});
  ts.add(0, {0.0, 0.0, 0.0, 8.0});
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.label(2), 0);
  EXPECT_DOUBLE_EQ(ts.trace(1)[0], 3.0);
  const auto means = ts.classMeans();
  EXPECT_DOUBLE_EQ(means[3][0], 2.0);
  EXPECT_DOUBLE_EQ(means[3][3], 2.0);
  EXPECT_DOUBLE_EQ(means[0][3], 8.0);
  EXPECT_DOUBLE_EQ(means[7][0], 0.0);  // empty class
  const auto counts = ts.classCounts();
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(counts[0], 1u);
}

TEST(TraceSet, FirstNRestriction) {
  TraceSet ts(1);
  ts.add(0, {1.0});
  ts.add(0, {3.0});
  const auto m1 = ts.classMeans(1);
  EXPECT_DOUBLE_EQ(m1[0][0], 1.0);
  const auto c1 = ts.classCounts(1);
  EXPECT_EQ(c1[0], 1u);
}

TEST(TraceSet, RejectsBadInput) {
  TraceSet ts(4);
  EXPECT_THROW(ts.add(16, {0, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(ts.add(0, {0, 0}), std::invalid_argument);
}

TEST(Acquisition, ProducesBalancedLabelledTraces) {
  const auto sbox = makeSbox(SboxStyle::Opt);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 8;
  const TraceSet ts = acquire(*sbox, sim, pm, cfg);
  EXPECT_EQ(ts.size(), 8u * 16u);
  for (std::uint32_t c : ts.classCounts()) EXPECT_EQ(c, 8u);
  EXPECT_EQ(ts.numSamples(), pm.options().numSamples);
}

TEST(Acquisition, DeterministicPerSeed) {
  const auto sbox = makeSbox(SboxStyle::Rsm);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 2;
  const TraceSet a = acquire(*sbox, sim, pm, cfg);
  const TraceSet b = acquire(*sbox, sim, pm, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    for (std::uint32_t s = 0; s < a.numSamples(); ++s) {
      EXPECT_DOUBLE_EQ(a.trace(i)[s], b.trace(i)[s]);
    }
  }
  cfg.seed ^= 0x123;
  const TraceSet c = acquire(*sbox, sim, pm, cfg);
  bool anyDiff = false;
  for (std::size_t i = 0; i < c.size() && !anyDiff; ++i) {
    anyDiff = c.label(i) != a.label(i);
  }
  EXPECT_TRUE(anyDiff);
}

TEST(Acquisition, UnprotectedTracesDependOnlyOnClass) {
  // Without masks, all traces of one class are identical.
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 4;
  const TraceSet ts = acquire(*sbox, sim, pm, cfg);
  std::array<const double*, 16> rep{};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const std::uint8_t c = ts.label(i);
    if (rep[c] == nullptr) {
      rep[c] = ts.trace(i);
      continue;
    }
    for (std::uint32_t s = 0; s < ts.numSamples(); ++s) {
      ASSERT_DOUBLE_EQ(ts.trace(i)[s], rep[c][s]) << "class " << int(c);
    }
  }
}

TEST(Acquisition, MaskedTracesVaryWithinClass) {
  const auto sbox = makeSbox(SboxStyle::Glut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.tracesPerClass = 6;
  const TraceSet ts = acquire(*sbox, sim, pm, cfg);
  bool varies = false;
  std::array<const double*, 16> rep{};
  for (std::size_t i = 0; i < ts.size() && !varies; ++i) {
    const std::uint8_t c = ts.label(i);
    if (rep[c] == nullptr) {
      rep[c] = ts.trace(i);
      continue;
    }
    for (std::uint32_t s = 0; s < ts.numSamples(); ++s) {
      if (ts.trace(i)[s] != rep[c][s]) {
        varies = true;
        break;
      }
    }
  }
  EXPECT_TRUE(varies) << "mask randomness must modulate the power";
}

TEST(AcquireKeyed, LabelsArePlaintexts) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  EventSim sim(sbox->netlist(), dm);
  AcquisitionConfig cfg;
  cfg.seed = 1;
  const TraceSet ts = acquireKeyed(*sbox, sim, pm, cfg, 0xB, 64);
  EXPECT_EQ(ts.size(), 64u);
  for (std::size_t i = 0; i < ts.size(); ++i) EXPECT_LT(ts.label(i), 16);
}

// The keyed protocol takes the acquisition config like every other one: it
// reports progress, honours an abort and refuses an adaptive config, and
// it feeds a profiler attached to its simulator; neither observer changes
// a trace.
TEST(AcquireKeyed, HonoursProgressProfilerAndAdaptiveFromConfig) {
  const auto sbox = makeSbox(SboxStyle::Lut);
  const DelayModel dm(sbox->netlist());
  const PowerModel pm(sbox->netlist());
  AcquisitionConfig plain;
  plain.seed = 1;
  plain.numThreads = 2;
  EventSim plainSim(sbox->netlist(), dm);
  const TraceSet expected = acquireKeyed(*sbox, plainSim, pm, plain, 0xB, 96);

  for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
    SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)));
    AcquisitionConfig cfg = plain;
    cfg.engine = engine;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    std::string label;
    cfg.progress = [&](const obs::ProgressUpdate& u) {
      done = u.done;
      total = u.total;
      label = std::string(u.label);
      return true;
    };
    obs::Profiler profiler;
    EventSim sim(sbox->netlist(), dm);
    sim.attachProfiler(&profiler);
    const TraceSet ts = acquireKeyed(*sbox, sim, pm, cfg, 0xB, 96);
    EXPECT_EQ(done, 96u);
    EXPECT_EQ(total, 96u);
    EXPECT_EQ(label, "acquire-keyed");
    EXPECT_GT(profiler.runs(), 0u);
    ASSERT_EQ(ts.size(), expected.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_EQ(ts.label(i), expected.label(i)) << "trace " << i;
      for (std::uint32_t s = 0; s < ts.numSamples(); ++s) {
        ASSERT_EQ(ts.trace(i)[s], expected.trace(i)[s]) << "trace " << i;
      }
    }
  }

  AcquisitionConfig abort = plain;
  abort.progress = [](const obs::ProgressUpdate&) { return false; };
  EventSim abortSim(sbox->netlist(), dm);
  EXPECT_THROW(acquireKeyed(*sbox, abortSim, pm, abort, 0xB, 96),
               obs::ProgressAborted);

  AcquisitionConfig adaptive = plain;
  adaptive.adaptive = true;
  EventSim adaptiveSim(sbox->netlist(), dm);
  EXPECT_THROW(acquireKeyed(*sbox, adaptiveSim, pm, adaptive, 0xB, 96),
               std::invalid_argument);
}

}  // namespace
}  // namespace lpa
