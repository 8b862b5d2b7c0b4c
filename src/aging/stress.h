#pragma once
// Per-gate stress-profile extraction.
//
// Aging depends on how each gate is exercised in the field: the fraction of
// time its output sits high (BTI stress duty for the PMOS network; the
// complement stresses the NMOS network) and how often it toggles per clock
// cycle (HCI). Profiles are accumulated from representative operation:
// settled states contribute duty, event logs contribute toggle counts —
// one cycle at a time, or as per-net totals over many cycles (a lane
// group of the batch engine, core/experiment.h).

#include <cstdint>
#include <vector>

#include "sim/waveform.h"

namespace lpa {

struct StressProfile {
  std::vector<double> dutyHigh;        ///< P(output == 1), per net
  std::vector<double> togglesPerCycle; ///< mean committed transitions, per net
};

class StressAccumulator {
 public:
  explicit StressAccumulator(std::size_t numNets);

  /// Accounts one settled clock state (values of every net).
  void addSettledState(const std::vector<std::uint8_t>& netValues);

  /// Accounts the transitions of one evaluation cycle.
  void addTransitions(const std::vector<Transition>& transitions);

  /// Accounts `cycles` cycles at once from per-net totals over them: net i
  /// settled high in high[i] of their states and committed toggles[i]
  /// transitions. Equal to the per-cycle calls, since counts are integers.
  void addCycles(std::uint64_t cycles, const std::vector<std::uint64_t>& high,
                 const std::vector<std::uint64_t>& toggles);

  /// Adds the counts of `other` (same net count). Counts are integers, so
  /// accumulators merged in any order finalize to the same profile.
  void merge(const StressAccumulator& other);

  /// Number of settled states seen so far.
  std::uint64_t states() const { return states_; }

  StressProfile finalize() const;

 private:
  std::vector<std::uint64_t> highCount_;
  std::vector<std::uint64_t> toggleCount_;
  std::uint64_t states_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace lpa
