#pragma once
// Combinational netlist container.
//
// Gates are stored in creation order, which is required to be topological
// (fanins always precede the gate). Every gate drives exactly one net and the
// gate index doubles as the net index, so lookups are O(1) and the structure
// is trivially serializable.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate.h"

namespace lpa {

class Netlist {
 public:
  /// Adds a gate; fanins must reference existing gates. Returns the new
  /// gate's output net. Throws std::invalid_argument on malformed gates.
  NetId addGate(GateType type, const std::vector<NetId>& fanins);

  /// Adds a named primary input.
  NetId addInput(std::string name);

  /// Marks an existing net as a primary output under `name`.
  void markOutput(NetId net, std::string name);

  /// Overlay hook for fault injection: rewrites gate `id` in place to
  /// `type` with `fanins`. Unlike addGate, fanins may reference *any*
  /// existing net — including `id` itself or later gates — so an overlay
  /// can express bridging/rewire faults. A fanin at or after `id` breaks
  /// the index order (see isIndexOrdered): run validate() (which detects
  /// combinational cycles) to diagnose, and simulate with a watchdog budget
  /// (SimOptions::maxEvents) since feedback may oscillate. Replacing a
  /// primary input's gate with a constant models a stuck input (the
  /// simulator then ignores stimulus on it); `type` must not be
  /// GateType::Input.
  void replaceGate(NetId id, GateType type, const std::vector<NetId>& fanins);

  /// True when every gate's fanins come before it in index order — the
  /// invariant addGate enforces. Overlays that rewrite a gate's function
  /// or make it constant (stuck-at, bit-flip), delay faults and bridges to
  /// an earlier net keep it; a bridge to the gate itself or a later net
  /// breaks it and can close a loop. The compiled and batch engines need
  /// it (their settle is the single index-order pass of evaluate()), so
  /// they refuse a netlist without it and acquire() falls back to the
  /// reference EventSim. O(gates) per call.
  bool isIndexOrdered() const;

  std::size_t numGates() const { return gates_.size(); }
  const Gate& gate(NetId id) const { return gates_[id]; }
  const std::vector<Gate>& gates() const { return gates_; }

  const std::vector<NetId>& inputs() const { return inputs_; }
  const std::vector<NetId>& outputs() const { return outputs_; }
  const std::string& inputName(std::size_t i) const { return inputNames_[i]; }
  const std::string& outputName(std::size_t i) const {
    return outputNames_[i];
  }

  /// Net driven by the primary input called `name`; throws if unknown.
  NetId inputByName(const std::string& name) const;
  /// Net marked as the primary output called `name`; throws if unknown.
  NetId outputByName(const std::string& name) const;

  /// Fanout count of each net (number of gate fanins referencing it).
  /// Computed lazily and cached; invalidated by addGate.
  const std::vector<std::uint32_t>& fanoutCounts() const;

  /// Zero-delay functional evaluation: assigns `inputValues` (same order as
  /// inputs()) and returns the value of every net. Values are 0/1.
  std::vector<std::uint8_t> evaluate(
      const std::vector<std::uint8_t>& inputValues) const;

  /// Convenience: evaluate and gather the primary-output values in
  /// outputs() order.
  std::vector<std::uint8_t> evaluateOutputs(
      const std::vector<std::uint8_t>& inputValues) const;

  /// Logic depth of each net: 0 for sources, 1 + max(fanin depth) otherwise.
  /// INV/BUF count as levels too (Table I counts them on the critical path).
  std::vector<std::uint32_t> depths() const;

  /// Depth of the deepest primary output (the paper's "Delay" row).
  std::uint32_t criticalPathDepth() const;

 private:
  std::vector<Gate> gates_;
  std::vector<NetId> inputs_;
  std::vector<std::string> inputNames_;
  std::vector<NetId> outputs_;
  std::vector<std::string> outputNames_;
  std::unordered_map<std::string, NetId> inputIndex_;
  std::unordered_map<std::string, NetId> outputIndex_;
  mutable std::vector<std::uint32_t> fanoutCache_;
};

}  // namespace lpa
