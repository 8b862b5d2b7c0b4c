#include "sim/delay_model.h"

#include <random>
#include <stdexcept>

namespace lpa {

double baseDelayPs(GateType t, int fanin) {
  const int extra = fanin > 2 ? fanin - 2 : 0;
  switch (t) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1:
      return 0.0;
    case GateType::Buf:
      return 10.0;
    case GateType::Inv:
      return 8.0;
    case GateType::Nand:
      return 10.0 + 2.0 * extra;
    case GateType::Nor:
      return 12.0 + 3.0 * extra;
    case GateType::And:
      return 14.0 + 2.0 * extra;
    case GateType::Or:
      return 14.0 + 3.0 * extra;
    case GateType::Xor:
      return 22.0;
    case GateType::Xnor:
      return 22.0;
  }
  return 0.0;
}

DelayModel::DelayModel(const Netlist& nl, const DelayOptions& opts) {
  const std::vector<std::uint32_t>& fanout = nl.fanoutCounts();
  std::mt19937_64 rng(opts.deviceSeed);
  // normal(1, 0) would return exactly 1.0 but violates the distribution's
  // sigma > 0 precondition, so a jitter-free model skips the draw.
  const bool jittered = opts.jitterSigma > 0.0;
  std::normal_distribution<double> jitter(1.0,
                                          jittered ? opts.jitterSigma : 1.0);
  fresh_.resize(nl.numGates());
  for (NetId id = 0; id < nl.numGates(); ++id) {
    const Gate& g = nl.gate(id);
    if (isSourceGate(g.type)) {
      fresh_[id] = 0.0;
      continue;
    }
    const double base = baseDelayPs(g.type, g.numFanin);
    const double loadExtra =
        fanout[id] > 1 ? opts.loadFactorPerFanout * (fanout[id] - 1) : 0.0;
    double j = jittered ? jitter(rng) : 1.0;
    if (j < 0.5) j = 0.5;  // clamp pathological draws
    fresh_[id] = base * (1.0 + loadExtra) * j;
  }
  delays_ = fresh_;
}

void DelayModel::setAgingFactors(const std::vector<double>& delayScale) {
  if (delayScale.size() != fresh_.size()) {
    throw std::invalid_argument("aging factor count mismatch");
  }
  delays_ = fresh_;
  for (std::size_t i = 0; i < fresh_.size(); ++i) {
    delays_[i] *= delayScale[i];
  }
}

void DelayModel::clearAging() { delays_ = fresh_; }

void DelayModel::scaleDelay(NetId id, double factor) {
  if (id >= fresh_.size()) {
    throw std::invalid_argument("scaleDelay: no such gate");
  }
  if (!(factor > 0.0)) {
    throw std::invalid_argument("scaleDelay: factor must be > 0");
  }
  fresh_[id] *= factor;
  delays_[id] *= factor;
}

}  // namespace lpa
