#pragma once
// Fault fixtures shared by the engine and campaign tests: picks of one
// fault of each kind on a real S-box netlist, and a decode wrapper that
// lets acquire() record a faulted design's traces.

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_spec.h"
#include "sboxes/masked_sbox.h"

namespace lpa::fixtures {

/// First non-source gate at or after the middle of the netlist.
inline NetId midGate(const Netlist& nl) {
  for (NetId g = static_cast<NetId>(nl.numGates() / 2); g < nl.numGates();
       ++g) {
    if (!isSourceGate(nl.gate(g).type)) return g;
  }
  throw std::logic_error("midGate: no gate in the second half");
}

/// One fault of every kind that keeps the netlist index-ordered: stuck-at
/// on the last primary input, stuck-at / bit-flip / delay inflation on an
/// internal gate, and a bridge from that gate's pin 0 to an earlier net.
inline std::vector<FaultSpec> indexOrderedFaults(const Netlist& nl) {
  const NetId g = midGate(nl);
  const NetId earlier = nl.gate(g).fanin[0] == nl.inputs().front()
                            ? nl.inputs().back()
                            : nl.inputs().front();
  if (earlier >= g) throw std::logic_error("indexOrderedFaults: late input");
  return {
      {FaultKind::StuckAt1, nl.inputs().back(), 0.0, 0, kInvalidNet},
      {FaultKind::StuckAt0, g, 0.0, 0, kInvalidNet},
      {FaultKind::BitFlip, g, 0.0, 0, kInvalidNet},
      {FaultKind::DelayInflation, g, 8.0, 0, kInvalidNet},
      {FaultKind::Bridge, g, 0.0, 0, earlier},
  };
}

/// A bridge from pin 0 of the first gate that has one to a later net
/// outside that gate's fanout cone: the overlay breaks index order (so the
/// fast engines must refuse it) without closing a loop (so the reference
/// engine still converges without a watchdog).
inline FaultSpec acyclicForwardBridge(const Netlist& nl) {
  for (NetId g = 0; g < nl.numGates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (isSourceGate(gate.type)) continue;
    std::vector<char> dependsOnG(nl.numGates(), 0);
    dependsOnG[g] = 1;
    for (NetId n = g + 1; n < nl.numGates(); ++n) {
      const Gate& gn = nl.gate(n);
      for (int i = 0; i < gn.numFanin; ++i) {
        if (dependsOnG[gn.fanin[static_cast<std::size_t>(i)]]) {
          dependsOnG[n] = 1;
        }
      }
    }
    for (NetId t = static_cast<NetId>(nl.numGates() - 1); t > g; --t) {
      if (!dependsOnG[t]) return {FaultKind::Bridge, g, 0.0, 0, t};
    }
  }
  throw std::logic_error("acyclicForwardBridge: no candidate");
}

/// Wraps an S-box so acquire() records a faulted design's traces instead
/// of failing its decode check: decode() ignores the (faulted) outputs and
/// decodes the fault-free netlist's zero-delay outputs for the same inputs,
/// which is right by construction. Everything else forwards.
class FaultFreeDecodeSbox final : public MaskedSbox {
 public:
  explicit FaultFreeDecodeSbox(std::unique_ptr<MaskedSbox> inner)
      : inner_(std::move(inner)) {
    nl_ = inner_->netlist();
  }
  SboxStyle style() const override { return inner_->style(); }
  int randomBits() const override { return inner_->randomBits(); }
  std::vector<std::uint8_t> encode(std::uint8_t plain,
                                   Prng& rng) const override {
    return inner_->encode(plain, rng);
  }
  std::uint8_t decode(const std::vector<std::uint8_t>&,
                      const std::vector<std::uint8_t>& inputs) const override {
    return inner_->decode(nl_.evaluateOutputs(inputs), inputs);
  }

 private:
  std::unique_ptr<MaskedSbox> inner_;
};

}  // namespace lpa::fixtures
