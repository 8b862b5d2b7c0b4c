#pragma once
// Fault-injection campaign runner: fault list × Fig. 5 trace schedule with
// per-fault graceful degradation.
//
// For every fault in the list, the campaign overlays the fault on a clone
// of the design (fault/fault_spec.h), re-runs the acquisition protocol
// under the simulator watchdog, and classifies the fault's observable
// effect per trace against the fault-free zero-delay reference: masked-out,
// detected-by-decode, silent-corruption or diverged (FaultDetection,
// trace/acquisition.h). A diverged trace is recorded and left out of the
// fault's traces and leakage; the campaign goes on with the next trace.
//
// Determinism contract (mirrors trace/acquisition.h): everything a faulted
// trace consumes derives from (seed, faultIndex, traceIndex) via nested
// stream derivation, so campaign results are bit-identical for every
// worker-thread count, and with an empty fault list the baseline TraceSet
// is bit-identical to plain acquire() with the same parameters.
//
// Engines: fault j is one acquireClassified() call (trace/acquisition.h)
// on an EventSim over the faulted design, on one worker, under its own
// seed; the campaign shards the faults across its workers. The call runs
// acquire()'s protocol, plan and engine choice: the batch engine for every
// overlay that keeps the netlist index-ordered (Netlist::isIndexOrdered —
// every kind but a bridge to a later net), the reference EventSim for a
// forward bridge and for any lane group in which a lane trips the
// watchdog. Every engine is bit-identical per trace, so the reports,
// diverged counts and traces do not depend on which engine served a trace.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_spec.h"
#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/event_sim.h"
#include "trace/acquisition.h"
#include "trace/trace_set.h"

namespace lpa {

struct FaultReport {
  FaultSpec fault;
  std::string description;  ///< describeFault() of the spec
  /// Worst observed effect over all traces of this fault
  /// (Diverged > SilentCorruption > DetectedByDecode > MaskedOut).
  FaultDetection classification = FaultDetection::MaskedOut;
  FaultTraceCounts counts;
  /// Largest event count a diverging run reached before the watchdog fired.
  std::uint64_t maxWatchdogEvents = 0;
  /// Debiased WHT leakage of the completed (non-diverged) faulted traces,
  /// if FaultCampaignConfig::analyzeLeakage; 0 when no trace completed.
  double totalLeakage = 0.0;
  double singleBitLeakage = 0.0;  ///< wH(u) == 1 energy (demasking leakage)
};

struct FaultCampaignConfig {
  /// Traces per class *per fault* (and for the baseline acquisition).
  std::uint32_t tracesPerClass = 8;
  /// Defaults to the calibrated acquisition seed so an empty-fault-list
  /// campaign reproduces AcquisitionConfig{} bit-identically.
  std::uint64_t seed = 0xCAFE0003ULL;
  /// Worker threads; each claims the next unstarted fault (0 = hardware
  /// concurrency).
  std::uint32_t numThreads = 0;
  /// Simulator options for baseline and faulted runs; the watchdog budget
  /// below is applied on top when the options leave maxEvents at 0.
  SimOptions sim{};
  /// Per-run event budget: a fault-induced oscillation terminates with a
  /// SimDiverged classification instead of hanging the campaign.
  std::uint64_t maxEventsPerRun = 1u << 20;
  bool analyzeLeakage = true;   ///< fill the WHT leakage fields (Debiased)
  bool keepFaultTraces = false; ///< retain each fault's TraceSet
  /// Route campaign instrumentation (sim.* counters of every faulted run,
  /// fault.outcome.* tallies) into obs::MetricsRegistry::global(). A pure
  /// sink — results are bit-identical either way (obs/metrics.h).
  bool observe = true;
  /// Optional progress sink (obs/progress.h), stepped once per finished
  /// fault (and forwarded to the baseline acquisition); returning false
  /// aborts the campaign cooperatively (throws obs::ProgressAborted).
  obs::ProgressFn progress;
};

struct FaultCampaignResult {
  explicit FaultCampaignResult(std::uint32_t numSamples)
      : baseline(numSamples) {}

  /// Fault-free acquisition, bit-identical to acquire() with the same
  /// (tracesPerClass, seed, numThreads).
  TraceSet baseline;
  double baselineTotalLeakage = 0.0;
  double baselineSingleBitLeakage = 0.0;
  std::vector<FaultReport> reports;  ///< one per fault, in input order
  /// Per-fault trace sets when FaultCampaignConfig::keepFaultTraces.
  std::vector<TraceSet> faultTraces;
  std::uint32_t faultsCompleted = 0;  ///< reports.size()
};

/// Mask/randomness-carrying primary inputs of an implementation, by the
/// repo's naming convention (mi*/mo*/m*/r* mask and gadget-randomness
/// wires, plus share inputs s1_*.. beyond share 0): the wires a campaign
/// faults to test whether the masking scheme survives.
std::vector<NetId> maskWireNets(const MaskedSbox& sbox);

/// Stuck-at-0 and stuck-at-1 specs for every net in `nets`.
std::vector<FaultSpec> stuckAtFaults(const std::vector<NetId>& nets);

/// Runs the campaign. `delays` and `power` must be built for
/// sbox.netlist(); the faulted designs reuse the base power model (faults
/// are logical, the switched capacitances stay those of the base cells).
/// Validates the base netlist up front (validateOrThrow).
FaultCampaignResult runFaultCampaign(const MaskedSbox& sbox,
                                     const DelayModel& delays,
                                     const PowerModel& power,
                                     const std::vector<FaultSpec>& faults,
                                     const FaultCampaignConfig& cfg = {});

}  // namespace lpa
