#include "sim/compiled_design.h"

#include <algorithm>
#include <stdexcept>

namespace lpa {

CompiledDesign::CompiledDesign(const Netlist& nl, const DelayModel& delays,
                               const PowerModel& power) {
  if (!nl.isIndexOrdered()) {
    throw std::invalid_argument(
        "CompiledDesign: a gate reads a fanin that does not precede it (a "
        "forward bridge overlay); use the reference EventSim engine");
  }
  if (power.numGates() != nl.numGates() ||
      delays.delays().size() != nl.numGates()) {
    throw std::invalid_argument(
        "CompiledDesign: delay/power model size does not match the netlist");
  }

  numGates = static_cast<std::uint32_t>(nl.numGates());
  type.resize(numGates);
  numFanin.resize(numGates);
  fanin.assign(static_cast<std::size_t>(numGates) * kMaxFanin, 0);
  truthTable.assign(numGates, 0);
  for (NetId id = 0; id < numGates; ++id) {
    const Gate& g = nl.gate(id);
    type[id] = static_cast<std::uint8_t>(g.type);
    numFanin[id] = g.numFanin;
    // Unused fanin slots alias slot 0 (or net 0 for source gates): always a
    // valid state index, and the truth table below is constant across the
    // corresponding index bits. Input gates self-reference with an identity
    // table (output = fanin bit 0 = own state), which makes re-evaluating
    // them a no-op — the settle pass needs no per-gate type branch.
    const NetId filler =
        g.type == GateType::Input ? id : (g.numFanin > 0 ? g.fanin[0] : 0);
    for (int i = 0; i < kMaxFanin; ++i) {
      fanin[static_cast<std::size_t>(id) * kMaxFanin +
            static_cast<std::size_t>(i)] =
          i < g.numFanin ? g.fanin[static_cast<std::size_t>(i)] : filler;
    }
    // Exhaustive enumeration through evalGate: the flat engine computes the
    // gate's boolean function verbatim. Index bits beyond numFanin don't
    // reach evalGate, so the table is insensitive to them by construction.
    std::uint16_t tt = 0;
    if (g.type == GateType::Input) {
      tt = 0xAAAA;  // identity on index bit 0 (the gate's own state)
    } else if (isSourceGate(g.type)) {
      tt = g.type == GateType::Const1 ? 0xFFFF : 0x0000;
    } else {
      for (unsigned idx = 0; idx < 16; ++idx) {
        std::array<std::uint8_t, kMaxFanin> vals{};
        for (int i = 0; i < g.numFanin; ++i) {
          vals[static_cast<std::size_t>(i)] = (idx >> i) & 1u;
        }
        if (evalGate(g, vals)) tt |= static_cast<std::uint16_t>(1u << idx);
      }
    }
    truthTable[id] = tt;
  }

  // CSR fanout, edge order identical to the reference construction (gates
  // visited in ascending id, so each net's consumer list is ascending).
  fanoutOffsets.assign(numGates + 1, 0);
  for (NetId id = 0; id < numGates; ++id) {
    const Gate& g = nl.gate(id);
    for (int i = 0; i < g.numFanin; ++i) {
      ++fanoutOffsets[g.fanin[static_cast<std::size_t>(i)] + 1];
    }
  }
  for (std::uint32_t n = 0; n < numGates; ++n) {
    fanoutOffsets[n + 1] += fanoutOffsets[n];
  }
  fanoutEdges.resize(fanoutOffsets[numGates]);
  std::vector<std::uint32_t> cursor(fanoutOffsets.begin(),
                                    fanoutOffsets.end() - 1);
  for (NetId id = 0; id < numGates; ++id) {
    const Gate& g = nl.gate(id);
    for (int i = 0; i < g.numFanin; ++i) {
      fanoutEdges[cursor[g.fanin[static_cast<std::size_t>(i)]]++] = id;
    }
  }

  inputNets.assign(nl.inputs().begin(), nl.inputs().end());
  inputLive.resize(inputNets.size());
  for (std::size_t i = 0; i < inputNets.size(); ++i) {
    inputLive[i] = nl.gate(inputNets[i]).type == GateType::Input ? 1 : 0;
  }
  outputNets.assign(nl.outputs().begin(), nl.outputs().end());

  // Logic depth: fanins always precede their consumers (topological
  // creation order), so one index-order pass suffices.
  std::vector<std::uint32_t> level(numGates, 0);
  numLevels = 0;
  for (NetId id = 0; id < numGates; ++id) {
    const Gate& g = nl.gate(id);
    std::uint32_t lv = 0;
    for (int i = 0; i < g.numFanin; ++i) {
      lv = std::max(lv, level[g.fanin[static_cast<std::size_t>(i)]] + 1);
    }
    level[id] = lv;
    numLevels = std::max(numLevels, lv + 1);
  }

  const PowerOptions& po = power.options();
  samplePeriodPs = po.samplePeriodPs;
  pulseHalfWidthPs = po.pulseWidthPs * 0.5;
  noiseSigma = po.noiseSigma;
  numSamples = po.numSamples;

  refresh(delays, power);
}

void CompiledDesign::refresh(const DelayModel& delays,
                             const PowerModel& power) {
  if (power.numGates() != numGates || delays.delays().size() != numGates) {
    throw std::invalid_argument(
        "CompiledDesign::refresh: model size does not match the compiled "
        "netlist");
  }
  delayPs.assign(delays.delays().begin(), delays.delays().end());
  energyFf.resize(numGates);
  for (NetId id = 0; id < numGates; ++id) {
    energyFf[id] = power.effectiveCapFf(id);
  }
  // Delay extrema over non-source gates (source gates never schedule
  // events; their snapshot delay is meaningless for queue sizing).
  minDelayPs = 0.0;
  maxDelayPs = 0.0;
  bool any = false;
  for (NetId id = 0; id < numGates; ++id) {
    if (isSourceGate(static_cast<GateType>(type[id]))) continue;
    const double d = delayPs[id];
    if (!any) {
      minDelayPs = maxDelayPs = d;
      any = true;
    } else {
      minDelayPs = std::min(minDelayPs, d);
      maxDelayPs = std::max(maxDelayPs, d);
    }
  }
}

}  // namespace lpa
