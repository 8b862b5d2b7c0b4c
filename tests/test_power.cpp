#include "power/power_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>

#include "netlist/builder.h"
#include "sim/event_sim.h"

namespace lpa {
namespace {

Netlist inverterPair(NetId* i1, NetId* i2) {
  NetlistBuilder b;
  const NetId a = b.input("a");
  *i1 = b.inv(a);
  *i2 = b.inv(*i1);
  b.output(*i2, "y");
  return b.take();
}

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(PowerModel, IntrinsicCapsGrowWithComplexity) {
  EXPECT_GT(intrinsicCapFf(GateType::Xor, 2), intrinsicCapFf(GateType::Inv, 1));
  EXPECT_GT(intrinsicCapFf(GateType::And, 4), intrinsicCapFf(GateType::And, 2));
  EXPECT_EQ(intrinsicCapFf(GateType::Const0, 0), 0.0);
}

TEST(PowerModel, TransitionDepositsItsEnergyOnce) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  const PowerModel pm(nl);
  // One transition at 100 ps on i2 (fanout 0 -> cap = intrinsic only).
  std::vector<Transition> tr = {{100.0, i2, 1}};
  const auto trace = pm.sample(tr);
  // Centre-sampled triangular kernel: discretization error is a few percent.
  EXPECT_NEAR(total(trace), pm.switchedCapFf(i2),
              0.06 * pm.switchedCapFf(i2));
  // Energy lands near sample 5 (100 ps / 20 ps).
  double peakT = 0.0;
  double peakV = -1.0;
  for (std::size_t s = 0; s < trace.size(); ++s) {
    if (trace[s] > peakV) {
      peakV = trace[s];
      peakT = static_cast<double>(s);
    }
  }
  EXPECT_NEAR(peakT, 5.0, 1.0);
}

TEST(PowerModel, SwitchedCapIncludesFanout) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  PowerOptions opts;
  opts.outputLoadFf = 0.0;
  const PowerModel pm(nl, opts);
  EXPECT_GT(pm.switchedCapFf(i1), pm.switchedCapFf(i2));
}

TEST(PowerModel, PrimaryOutputsCarryRegisterLoad) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  PowerOptions loaded;
  loaded.outputLoadFf = 6.0;
  PowerOptions bare;
  bare.outputLoadFf = 0.0;
  EXPECT_NEAR(PowerModel(nl, loaded).switchedCapFf(i2),
              PowerModel(nl, bare).switchedCapFf(i2) + 6.0, 1e-12);
}

TEST(PowerModel, TransitionsOutsideWindowAreDropped) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  const PowerModel pm(nl);
  std::vector<Transition> tr = {{5000.0, i2, 1}, {-200.0, i1, 1}};
  EXPECT_DOUBLE_EQ(total(pm.sample(tr)), 0.0);
}

TEST(PowerModel, AgingScalesAmplitude) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  PowerModel pm(nl);
  std::vector<Transition> tr = {{100.0, i2, 1}};
  const double fresh = total(pm.sample(tr));
  std::vector<double> scale(nl.numGates(), 1.0);
  scale[i2] = 0.8;
  pm.setAgingFactors(scale);
  EXPECT_NEAR(total(pm.sample(tr)), 0.8 * fresh, 1e-9);
  pm.clearAging();
  EXPECT_NEAR(total(pm.sample(tr)), fresh, 1e-9);
  EXPECT_THROW(pm.setAgingFactors({1.0}), std::invalid_argument);
}

TEST(PowerModel, NoiseIsDeterministicPerSeedAndOffByDefault) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  PowerOptions opts;
  opts.noiseSigma = 0.5;
  const PowerModel pm(nl, opts);
  std::vector<Transition> tr;
  const auto a = pm.sample(tr, 42);
  const auto b = pm.sample(tr, 42);
  const auto c = pm.sample(tr, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Seed 0 disables noise.
  const auto quiet = pm.sample(tr, 0);
  EXPECT_DOUBLE_EQ(total(quiet), 0.0);
}

TEST(PowerModel, PulseWidthRobustness) {
  // The total deposited energy must be (approximately) independent of the
  // pulse width -- design decision #3 in DESIGN.md.
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  std::vector<Transition> tr = {{987.0, i2, 1}};
  double prev = -1.0;
  for (double width : {15.0, 30.0, 60.0}) {
    PowerOptions opts;
    opts.pulseWidthPs = width;
    const PowerModel pm(nl, opts);
    const double e = total(pm.sample(tr));
    if (prev >= 0.0) {
      EXPECT_NEAR(e, prev, 0.35 * prev);
    }
    prev = e;
  }
}

TEST(PowerModel, RejectsDegenerateOptions) {
  // A zero sample period would make the bin index floor(t / dt) undefined,
  // a zero pulse width 0/0 NaN traces, and a NaN sigma reaches the noise
  // distribution: the constructor refuses all of them.
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double bad : {0.0, -20.0, kNan, kInf}) {
    SCOPED_TRACE(bad);
    PowerOptions period;
    period.samplePeriodPs = bad;
    EXPECT_THROW(PowerModel(nl, period), std::invalid_argument);
    PowerOptions width;
    width.pulseWidthPs = bad;
    EXPECT_THROW(PowerModel(nl, width), std::invalid_argument);
  }
  for (double bad : {-0.5, kNan, kInf}) {
    SCOPED_TRACE(bad);
    PowerOptions noise;
    noise.noiseSigma = bad;
    EXPECT_THROW(PowerModel(nl, noise), std::invalid_argument);
  }
  PowerOptions quiet;
  quiet.noiseSigma = 0.0;  // the default: no noise
  EXPECT_NO_THROW(PowerModel(nl, quiet));
}

TEST(PowerModel, EndToEndTraceHasActivityOnlyAfterStimulus) {
  NetId i1, i2;
  const Netlist nl = inverterPair(&i1, &i2);
  const DelayModel dm(nl);
  const PowerModel pm(nl);
  EventSim sim(nl, dm);
  sim.settle({0});
  const auto trace = pm.sample(sim.run({1}));
  EXPECT_GT(total(trace), 0.0);
  // All activity happens within the first few samples (two inverters).
  for (std::size_t s = 10; s < trace.size(); ++s) {
    EXPECT_DOUBLE_EQ(trace[s], 0.0);
  }
}

}  // namespace
}  // namespace lpa
