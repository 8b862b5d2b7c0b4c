#include "aging/stress.h"

#include <stdexcept>

namespace lpa {

StressAccumulator::StressAccumulator(std::size_t numNets)
    : highCount_(numNets, 0), toggleCount_(numNets, 0) {}

void StressAccumulator::addSettledState(
    const std::vector<std::uint8_t>& netValues) {
  if (netValues.size() != highCount_.size()) {
    throw std::invalid_argument("net count mismatch");
  }
  for (std::size_t i = 0; i < netValues.size(); ++i) {
    highCount_[i] += netValues[i] & 1u;
  }
  ++states_;
}

void StressAccumulator::addTransitions(
    const std::vector<Transition>& transitions) {
  for (const Transition& t : transitions) {
    if (t.net >= toggleCount_.size()) {
      throw std::invalid_argument("transition references unknown net");
    }
    ++toggleCount_[t.net];
  }
  ++cycles_;
}

void StressAccumulator::addCycles(std::uint64_t cycles,
                                  const std::vector<std::uint64_t>& high,
                                  const std::vector<std::uint64_t>& toggles) {
  if (high.size() != highCount_.size() ||
      toggles.size() != toggleCount_.size()) {
    throw std::invalid_argument("net count mismatch");
  }
  for (std::size_t i = 0; i < highCount_.size(); ++i) {
    highCount_[i] += high[i];
    toggleCount_[i] += toggles[i];
  }
  states_ += cycles;
  cycles_ += cycles;
}

void StressAccumulator::merge(const StressAccumulator& other) {
  if (other.highCount_.size() != highCount_.size()) {
    throw std::invalid_argument("net count mismatch");
  }
  for (std::size_t i = 0; i < highCount_.size(); ++i) {
    highCount_[i] += other.highCount_[i];
    toggleCount_[i] += other.toggleCount_[i];
  }
  states_ += other.states_;
  cycles_ += other.cycles_;
}

StressProfile StressAccumulator::finalize() const {
  StressProfile p;
  p.dutyHigh.assign(highCount_.size(), 0.5);
  p.togglesPerCycle.assign(toggleCount_.size(), 0.0);
  if (states_ > 0) {
    for (std::size_t i = 0; i < highCount_.size(); ++i) {
      p.dutyHigh[i] =
          static_cast<double>(highCount_[i]) / static_cast<double>(states_);
    }
  }
  if (cycles_ > 0) {
    for (std::size_t i = 0; i < toggleCount_.size(); ++i) {
      p.togglesPerCycle[i] = static_cast<double>(toggleCount_[i]) /
                             static_cast<double>(cycles_);
    }
  }
  return p;
}

}  // namespace lpa
