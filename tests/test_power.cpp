#include "power/power_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

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

// The per-bin deposition expressions the shared-boundary fractions
// replaced, kept as their oracle: two clamped CDF evaluations per bin.
double clampedKernelCdf(double u, double halfW) {
  u = std::clamp(u, -halfW, halfW);
  const double q = u * u / (2.0 * halfW * halfW);
  return 0.5 + (u <= 0.0 ? u / halfW + q : u / halfW - q);
}

double perBinFraction(double dt, double halfW, double timePs, int k) {
  const double lo = k * dt - timePs;
  const double hi = (k + 1) * dt - timePs;
  return clampedKernelCdf(hi, halfW) - clampedKernelCdf(lo, halfW);
}

bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Pulse centres that stress the bin arithmetic over a window of
/// `numSamples` bins: fine steps across bins at both ends and in the
/// middle, every bin edge, every centre that puts a bin edge at u = -halfW
/// or u = +halfW (and its neighbouring doubles), and fine steps across
/// 0 and numSamples * dt.
std::vector<double> stressCentres(double dt, double halfW,
                                  std::uint32_t numSamples) {
  std::vector<double> t;
  const double end = numSamples * dt;
  for (int k : {-1, 0, 1, static_cast<int>(numSamples) / 2,
                static_cast<int>(numSamples) - 1,
                static_cast<int>(numSamples)}) {
    for (int j = 0; j <= 64; ++j) t.push_back(k * dt + j * dt / 64.0);
  }
  for (int b = -2; b <= static_cast<int>(numSamples) + 2; ++b) {
    for (double c : {b * dt, b * dt - halfW, b * dt + halfW}) {
      t.push_back(c);
      t.push_back(std::nextafter(c, -1e9));
      t.push_back(std::nextafter(c, 1e9));
    }
  }
  for (double edge : {0.0, end}) {
    for (int j = -64; j <= 64; ++j) {
      t.push_back(edge + j * (halfW + dt) / 64.0);
    }
  }
  return t;
}

TEST(PowerDeposition, SharedBoundaryFractionsMatchThePerBinExpression) {
  for (double dt : {10.0, 20.0}) {
    for (double width : {15.0, 30.0, 60.0, 100.0}) {
      const double halfW = width * 0.5;
      const std::uint32_t numSamples = 100;
      const std::size_t maxBins =
          power_detail::maxPulseBins(numSamples, dt, halfW);
      SCOPED_TRACE("dt " + std::to_string(dt) + ", width " +
                   std::to_string(width));
      EXPECT_GE(maxBins, static_cast<std::size_t>(std::ceil(width / dt)) + 1);
      for (double t : stressCentres(dt, halfW, numSamples)) {
        int k0 = 0;
        int k1 = -1;
        const bool overlaps =
            power_detail::pulseBinRange(numSamples, dt, halfW, t, k0, k1);
        EXPECT_EQ(overlaps, k0 <= k1);
        if (overlaps) {
          ASSERT_LE(static_cast<std::size_t>(k1 - k0 + 1), maxBins) << t;
        }
        int next = k0;
        power_detail::forEachPulseBin(
            dt, halfW, t, k0, k1, [&](int k, double frac) {
              ASSERT_EQ(k, next++);
              const double want = perBinFraction(dt, halfW, t, k);
              ASSERT_TRUE(sameBits(want, frac))
                  << "centre " << t << " bin " << k << ": " << want
                  << " vs " << frac;
            });
        EXPECT_EQ(next, std::max(k0, k1 + 1));

        // The whole deposit, against the per-bin loop.
        std::vector<double> got(numSamples, 0.25), want(numSamples, 0.25);
        const double energy = 3.7;
        EXPECT_EQ(power_detail::depositPulse(got.data(), numSamples, dt,
                                             halfW, t, energy),
                  overlaps);
        for (int k = k0; k <= k1; ++k) {
          const double frac = perBinFraction(dt, halfW, t, k);
          if (frac > 0.0) want[static_cast<std::size_t>(k)] += energy * frac;
        }
        for (std::uint32_t k = 0; k < numSamples; ++k) {
          ASSERT_TRUE(sameBits(want[k], got[k])) << "centre " << t;
        }
      }
    }
  }
}

TEST(PowerDeposition, KernelCdfIsExactlyZeroAndOneOutsideThePulse) {
  // The early returns give what the clamped formula gives at u = -halfW
  // and u = +halfW, and inside the pulse the formula is unchanged.
  for (double width : {15.0, 30.0, 60.0, 100.0, 0.3, 7.1, 1e3}) {
    const double h = width * 0.5;
    EXPECT_TRUE(sameBits(clampedKernelCdf(-h, h), 0.0)) << width;
    EXPECT_TRUE(sameBits(clampedKernelCdf(h, h), 1.0)) << width;
    for (double u : {-2.0 * h, -h, std::nextafter(-h, 0.0), -0.5 * h, 0.0,
                     0.25 * h, std::nextafter(h, 0.0), h, 3.0 * h}) {
      EXPECT_TRUE(sameBits(clampedKernelCdf(u, h),
                           power_detail::triangleKernelCdf(u, h)))
          << "width " << width << ", u " << u;
    }
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
