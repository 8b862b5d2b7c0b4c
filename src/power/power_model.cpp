#include "power/power_model.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "obs/profiler.h"

namespace lpa {

double intrinsicCapFf(GateType t, int fanin) {
  const int extra = fanin > 2 ? fanin - 2 : 0;
  switch (t) {
    case GateType::Input:
      return 0.4;  // external driver; small pad contribution
    case GateType::Const0:
    case GateType::Const1:
      return 0.0;
    case GateType::Buf:
      return 1.6;
    case GateType::Inv:
      return 1.0;
    case GateType::Nand:
      // NAND2/NOR2 are the smallest library cells (single stage, small
      // drains) -- noticeably below AND/OR, which carry an extra inverter.
      return 0.9 + 0.4 * extra;
    case GateType::Nor:
      return 1.0 + 0.5 * extra;
    case GateType::And:
      return 2.4 + 0.5 * extra;
    case GateType::Or:
      return 2.4 + 0.6 * extra;
    case GateType::Xor:
      return 3.6;
    case GateType::Xnor:
      return 3.6;
  }
  return 0.0;
}

PowerModel::PowerModel(const Netlist& nl, const PowerOptions& opts)
    : opts_(opts) {
  // A zero period makes the bin index floor(t / dt) undefined, a zero width
  // makes every pulse 0/0, and a NaN sigma reaches normal_distribution.
  if (!(std::isfinite(opts.samplePeriodPs) && opts.samplePeriodPs > 0.0)) {
    throw std::invalid_argument(
        "PowerModel: samplePeriodPs must be positive and finite");
  }
  if (!(std::isfinite(opts.pulseWidthPs) && opts.pulseWidthPs > 0.0)) {
    throw std::invalid_argument(
        "PowerModel: pulseWidthPs must be positive and finite");
  }
  if (!(std::isfinite(opts.noiseSigma) && opts.noiseSigma >= 0.0)) {
    throw std::invalid_argument(
        "PowerModel: noiseSigma must be non-negative and finite");
  }
  const std::vector<std::uint32_t>& fanout = nl.fanoutCounts();
  capFf_.resize(nl.numGates());
  for (NetId id = 0; id < nl.numGates(); ++id) {
    const Gate& g = nl.gate(id);
    capFf_[id] = intrinsicCapFf(g.type, g.numFanin) +
                 opts.inputCapFf * static_cast<double>(fanout[id]);
  }
  for (NetId out : nl.outputs()) capFf_[out] += opts.outputLoadFf;
  agingScale_.assign(nl.numGates(), 1.0);
}

void PowerModel::setAgingFactors(const std::vector<double>& amplitudeScale) {
  if (amplitudeScale.size() != capFf_.size()) {
    throw std::invalid_argument("aging factor count mismatch");
  }
  agingScale_ = amplitudeScale;
}

void PowerModel::clearAging() {
  std::fill(agingScale_.begin(), agingScale_.end(), 1.0);
}

void PowerModel::attachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    tracesSampled_ = obs::Counter();
    pulsesDeposited_ = obs::Counter();
    return;
  }
  tracesSampled_ = registry->counter("power.traces_sampled");
  pulsesDeposited_ = registry->counter("power.pulses_deposited");
}

std::vector<double> PowerModel::sample(
    const std::vector<Transition>& transitions,
    std::uint64_t noiseSeed) const {
  std::vector<double> trace(opts_.numSamples, 0.0);
  const double dt = opts_.samplePeriodPs;
  const double halfW = opts_.pulseWidthPs * 0.5;

  std::uint64_t deposited = 0;
  for (const Transition& tr : transitions) {
    const double energy = capFf_[tr.net] * agingScale_[tr.net] * tr.weight;
    if (power_detail::depositPulse(trace.data(), opts_.numSamples, dt, halfW,
                                   tr.timePs, energy)) {
      ++deposited;  // pulse overlaps the sampling window
      if (profiler_ != nullptr && tr.net < profiler_->numNets()) {
        profiler_->addNetPulses(tr.net, 1);
      }
    }
  }

  power_detail::addGaussianNoise(trace.data(), opts_.numSamples,
                                 opts_.noiseSigma, noiseSeed);
  tracesSampled_.add(1);
  pulsesDeposited_.add(deposited);
  return trace;
}

}  // namespace lpa
