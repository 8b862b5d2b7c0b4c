#pragma once
// One-time compilation of (Netlist, DelayModel, PowerModel) into flat
// struct-of-arrays tables for the compiled simulation fast path
// (sim/compiled_sim.h).
//
// The reference EventSim walks a `std::vector<std::vector<NetId>>` fanout
// structure and re-reads Gate objects through the Netlist on every event;
// PowerModel::sample then re-scans the materialized Transition list. The
// compiled tables lay the same information out flat and contiguous:
//
//   * CSR fanout: one `fanoutOffsets` array (numGates + 1 entries) into a
//     single `fanoutEdges` array, replacing per-net heap-allocated vectors;
//     edge order matches the reference construction (ascending gate id), so
//     event scheduling order — and hence every tie-breaking sequence
//     number — is identical to EventSim's.
//   * Per-gate type / fanin-count / fanin nets at fixed stride kMaxFanin,
//     plus a 16-entry truth table per gate: evaluation is a 4-bit gather
//     of the fanin states indexing the table — branchless, no switch on
//     the gate type in the hot loop (see `truthTable` below).
//   * Per-gate dynamic scalars snapshotting the models: propagation delay
//     (DelayModel::delayPs, includes load/jitter/aging) and deposited
//     pulse energy (PowerModel::effectiveCapFf = switched cap x aging
//     amplitude factor). `refresh()` re-snapshots both after the experiment
//     ages the device, without rebuilding the topology tables.
//   * The power model's 50 GS/s sample-grid constants (period, pulse half
//     width, sample count, noise sigma), so the commit step of the compiled
//     engine can deposit each pulse straight onto the grid. A fully
//     pre-resolved per-gate bin footprint is deliberately NOT tabulated:
//     event times are continuous (jittered delays), and the bit-identity
//     contract pins the deposition arithmetic to the exact FP expressions
//     of PowerModel::sample (shared via power_detail::depositPulse); the
//     per-gate part that *can* be hoisted out of the hot loop reduces to
//     the energy scalar.
//
// A CompiledDesign is immutable while simulations run and is shared by
// reference among all CompiledSim clones of a worker pool (same contract as
// Netlist/DelayModel sharing in EventSim::clone).

#include <cstdint>
#include <vector>

#include "netlist/gate.h"
#include "netlist/netlist.h"
#include "power/power_model.h"
#include "sim/delay_model.h"

namespace lpa {

struct CompiledDesign {
  /// Builds every table. `delays` and `power` must be built for `nl`;
  /// throws std::invalid_argument on a size mismatch and on a netlist that
  /// is not index-ordered (Netlist::isIndexOrdered — a forward bridge
  /// overlay; the flat settle pass and the logic-depth pass below rely on
  /// fanins preceding their gates). Every other fault overlay lowers like
  /// a fresh design: a stuck input gets inputLive = 0, a stuck gate a
  /// constant truth table, a bit-flip the complemented one, and a delay
  /// fault or backward bridge only changes the snapshot and fanout tables.
  CompiledDesign(const Netlist& nl, const DelayModel& delays,
                 const PowerModel& power);

  /// Re-snapshots the dynamic per-gate scalars (delay, pulse energy) after
  /// aging mutated the models. Topology tables are untouched.
  void refresh(const DelayModel& delays, const PowerModel& power);

  std::uint32_t numGates = 0;

  // -- static topology (struct-of-arrays) --------------------------------
  std::vector<std::uint8_t> type;       ///< GateType per gate
  std::vector<std::uint8_t> numFanin;   ///< fanin count per gate
  /// Fanin nets, fixed stride kMaxFanin; unused slots alias slot 0 (valid
  /// to read, masked out by the truth table's insensitivity to them).
  std::vector<std::uint32_t> fanin;
  /// Bit i of truthTable[g] = output of g for packed fanin states i
  /// (fanin j contributes bit j). Built by exhaustive evalGate enumeration,
  /// so it is the gate's boolean function verbatim. Source gates: constants
  /// get a constant table; Inputs self-reference with an identity table, so
  /// blanket re-evaluation leaves them untouched (branchless settle).
  std::vector<std::uint16_t> truthTable;
  std::vector<std::uint32_t> fanoutOffsets;  ///< CSR offsets, numGates + 1
  std::vector<std::uint32_t> fanoutEdges;    ///< CSR edges (consumer gates)
  std::vector<std::uint32_t> inputNets;      ///< primary inputs, inputs() order
  /// 1 when the input net's gate is still GateType::Input (a stuck-input
  /// overlay replaces it with a constant, which must ignore stimulus).
  std::vector<std::uint8_t> inputLive;
  std::vector<std::uint32_t> outputNets;     ///< primary outputs, outputs() order

  // -- logic depth --------------------------------------------------------
  /// A source gate (input/constant) sits at level 0, any other gate at 1 +
  /// its deepest fanin's level; numLevels is the largest level + 1 (0 for
  /// an empty netlist). The batch engine's profiler sizes its sim-time
  /// timeline from it.
  std::uint32_t numLevels = 0;

  // -- dynamic model snapshot (refresh() re-fills) ------------------------
  std::vector<double> delayPs;   ///< DelayModel::delayPs per gate
  std::vector<double> energyFf;  ///< PowerModel::effectiveCapFf per gate
  /// Min/max of delayPs over non-source gates (0 when there are none);
  /// refresh() keeps them in step with aging. The batch engine derives its
  /// calendar bucket width (min) and ring size (max) from these.
  double minDelayPs = 0.0;
  double maxDelayPs = 0.0;

  // -- power sample-grid constants ----------------------------------------
  double samplePeriodPs = 0.0;
  double pulseHalfWidthPs = 0.0;
  double noiseSigma = 0.0;
  std::uint32_t numSamples = 0;
};

}  // namespace lpa
