#pragma once
// Switching-power model: turns a timed transition list into a sampled power
// trace, emulating what the paper measures from HSpice.
//
// Every committed output transition of gate g at time t draws a charge
// proportional to the switched load capacitance C(g) (gate intrinsic cap +
// fanout input caps). The resulting supply-current pulse is modeled as a
// triangular kernel of fixed width centred at t and integrated onto a
// uniform sample grid (the paper: 100 samples over 2 ns = 50 GS/s).
// Device aging scales each gate's pulse amplitude by its drive-current
// degradation factor (alpha-power law on the aged threshold voltage).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "sim/waveform.h"

namespace lpa {

namespace obs {
class Profiler;
}  // namespace obs

namespace power_detail {

// The deposition arithmetic is factored into these inline helpers so the
// reference path (PowerModel::sample over a Transition list) and the
// compiled fast path (CompiledSim fusing deposition into the event-commit
// step) execute the *same* floating-point expressions in the same order —
// the foundation of the engines' bit-identity contract. Any change here
// changes every determinism digest in the repo.

/// Antiderivative of the unit-area triangle 1/h * (1 - |u|/h), u = t - c.
inline double triangleKernelCdf(double u, double halfW) {
  u = std::clamp(u, -halfW, halfW);
  const double q = u * u / (2.0 * halfW * halfW);
  return 0.5 + (u <= 0.0 ? u / halfW + q : u / halfW - q);
}

/// First/last sample bins overlapped by a pulse centred at `timePs` (bin k
/// covers [k*dt, (k+1)*dt)); returns false when the pulse misses the window
/// entirely (then k0 > k1). Factored out of depositPulse so the batch
/// engine (sim/batch_sim.h) can compute the footprint once per commit and
/// share it across lanes.
inline bool pulseBinRange(std::uint32_t numSamples, double dt, double halfW,
                          double timePs, int& k0, int& k1) {
  const double t0 = timePs - halfW;
  const double t1 = timePs + halfW;
  k0 = std::max(static_cast<int>(std::floor(t0 / dt)), 0);
  k1 = std::min(static_cast<int>(std::floor(t1 / dt)),
                static_cast<int>(numSamples) - 1);
  return k0 <= k1;
}

/// Overlap fraction of the pulse over sample bin k. The lanes of a batch
/// commit share the commit time and hence this value; only the energy
/// scalar differs per lane — which is why the helper takes no energy.
inline double pulseBinFraction(double dt, double halfW, double timePs,
                               int k) {
  const double lo = k * dt - timePs;
  const double hi = (k + 1) * dt - timePs;
  return triangleKernelCdf(hi, halfW) - triangleKernelCdf(lo, halfW);
}

/// Exact integration of one triangular current pulse (centre `timePs`,
/// half-width `halfW`, area `energy`) over each overlapped sample bin (bin
/// k covers [k*dt, (k+1)*dt)): energy is conserved regardless of how the
/// pulse straddles bin boundaries. Returns true when the pulse overlaps
/// the sampling window (the power.pulses_deposited counting condition).
inline bool depositPulse(double* trace, std::uint32_t numSamples, double dt,
                         double halfW, double timePs, double energy) {
  int k0 = 0;
  int k1 = -1;
  const bool overlaps = pulseBinRange(numSamples, dt, halfW, timePs, k0, k1);
  for (int k = k0; k <= k1; ++k) {
    const double frac = pulseBinFraction(dt, halfW, timePs, k);
    if (frac > 0.0) trace[static_cast<std::size_t>(k)] += energy * frac;
  }
  return overlaps;
}

/// Additive Gaussian measurement noise, deterministic per seed; a zero
/// sigma or zero seed is a no-op (the acquisition convention).
inline void addGaussianNoise(double* trace, std::uint32_t numSamples,
                             double sigma, std::uint64_t seed) {
  if (sigma <= 0.0 || seed == 0) return;
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> noise(0.0, sigma);
  for (std::uint32_t i = 0; i < numSamples; ++i) trace[i] += noise(rng);
}

}  // namespace power_detail

struct PowerOptions {
  double samplePeriodPs = 20.0;   ///< 50 GS/s
  std::uint32_t numSamples = 100; ///< 2 ns window
  double pulseWidthPs = 30.0;     ///< full width of the triangular pulse
  double inputCapFf = 1.2;        ///< input pin capacitance (fF), per fanout
  double outputLoadFf = 12.0;      ///< load on primary outputs (the round
                                  ///< register / next layer the S-box drives)
  double noiseSigma = 0.0;        ///< additive Gaussian noise per sample
};

/// Intrinsic switched capacitance of a cell (fF), NANGATE-45nm-flavoured.
double intrinsicCapFf(GateType t, int fanin);

class PowerModel {
 public:
  /// Throws std::invalid_argument unless samplePeriodPs and pulseWidthPs
  /// are positive and finite and noiseSigma is non-negative and finite.
  PowerModel(const Netlist& nl, const PowerOptions& opts = {});

  /// Per-gate aging amplitude factors in (0, 1]; 1 = fresh.
  void setAgingFactors(const std::vector<double>& amplitudeScale);
  void clearAging();

  /// Integrates the transitions into a power trace of numSamples samples.
  /// Units are arbitrary but consistent across implementations and ages.
  /// If `noiseSeed` differs from 0 and noiseSigma > 0, Gaussian noise is
  /// added (deterministic per seed).
  std::vector<double> sample(const std::vector<Transition>& transitions,
                             std::uint64_t noiseSeed = 0) const;

  const PowerOptions& options() const { return opts_; }
  double switchedCapFf(NetId gate) const { return capFf_[gate]; }
  /// Aged pulse energy of a gate: switched cap x aging amplitude factor.
  /// This is the per-gate scalar the compiled fast path snapshots
  /// (sim/compiled_design.h).
  double effectiveCapFf(NetId gate) const {
    return capFf_[gate] * agingScale_[gate];
  }
  /// Number of gates the model was built for (netlist-match checks).
  std::size_t numGates() const { return capFf_.size(); }

  /// Routes "power.*" counters (sampled traces, deposited pulses) into
  /// `registry` (nullptr detaches). Counting is per-call relaxed adds and
  /// never changes the sampled values (zero-perturbation, obs/metrics.h).
  void attachMetrics(obs::MetricsRegistry* registry);

  /// Attaches a cost-attribution profiler (obs/profiler.h): pulses the
  /// reference path deposits are attributed per net via relaxed adds
  /// (sample() is const and may run from several worker threads). nullptr
  /// detaches. Pure sink — sampled values are unchanged.
  void attachProfiler(obs::Profiler* profiler) { profiler_ = profiler; }

 private:
  PowerOptions opts_;
  std::vector<double> capFf_;
  std::vector<double> agingScale_;
  obs::Counter tracesSampled_;
  obs::Counter pulsesDeposited_;
  obs::Profiler* profiler_ = nullptr;
};

}  // namespace lpa
