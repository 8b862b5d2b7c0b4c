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
// fused engines (BatchSim and CompiledSim depositing each pulse at its
// event commit) execute the *same* floating-point expressions in the same
// order — the foundation of the engines' bit-identity contract. Any change here
// changes every determinism digest in the repo.

/// Antiderivative of the unit-area triangle 1/h * (1 - |u|/h), u = t - c.
/// Outside the pulse it returns exactly 0 or 1 without the arithmetic:
/// those are the values the formula yields at u = -h and u = h, because
/// u / h is then exactly -1 or 1 and q exactly 0.5 ((2h) h = 2 (h h) in
/// binary floating point, for any h whose square is a normal double).
inline double triangleKernelCdf(double u, double halfW) {
  if (u <= -halfW) return 0.0;
  if (u >= halfW) return 1.0;
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

/// Most bins a pulse can overlap (pulseBinRange's k1 - k0 + 1): its width
/// spans 2 halfW / dt bins, so it touches at most floor of that + 2; one
/// more absorbs the rounding of the two bin indices. The batch engine
/// sizes its per-wave fraction scratch with this.
inline std::size_t maxPulseBins(std::uint32_t numSamples, double dt,
                                double halfW) {
  return std::min<std::size_t>(
      numSamples, static_cast<std::size_t>(2.0 * halfW / dt) + 3);
}

/// Calls fn(k, frac) for k = k0..k1 in order, frac being the pulse's
/// overlap fraction over sample bin k: CDF(hi) - CDF(lo) at the bin's
/// boundaries, boundary b at b * dt - timePs. Neighbouring bins share a
/// boundary, so K bins cost K + 1 CDF evaluations. The lanes of a batch
/// commit share the commit time and hence every fraction; only the energy
/// scalar differs per lane — which is why the helper takes no energy.
template <typename Fn>
inline void forEachPulseBin(double dt, double halfW, double timePs, int k0,
                            int k1, Fn&& fn) {
  if (k0 > k1) return;
  double lo = triangleKernelCdf(k0 * dt - timePs, halfW);
  for (int k = k0; k <= k1; ++k) {
    const double hi = triangleKernelCdf((k + 1) * dt - timePs, halfW);
    fn(k, hi - lo);
    lo = hi;
  }
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
  forEachPulseBin(dt, halfW, timePs, k0, k1, [&](int k, double frac) {
    if (frac > 0.0) trace[static_cast<std::size_t>(k)] += energy * frac;
  });
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
  /// This is the per-gate scalar the fused engines snapshot
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
