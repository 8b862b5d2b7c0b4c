#include "trace/trace_set.h"

#include <stdexcept>
#include <utility>

namespace lpa {

TraceSet::TraceSet(std::uint32_t numSamples, std::vector<std::uint8_t> labels,
                   std::vector<double> samples, std::uint32_t numClasses)
    : numSamples_(numSamples),
      numClasses_(numClasses),
      labels_(std::move(labels)),
      samples_(std::move(samples)) {
  if (samples_.size() != labels_.size() * numSamples_) {
    throw std::invalid_argument("trace length mismatch");
  }
  for (std::uint8_t cls : labels_) {
    if (cls >= numClasses_) throw std::invalid_argument("class out of range");
  }
}

void TraceSet::add(std::uint8_t cls, std::vector<double> trace) {
  if (trace.size() != numSamples_) {
    throw std::invalid_argument("trace length mismatch");
  }
  add(cls, trace.data());
}

void TraceSet::add(std::uint8_t cls, const double* samples) {
  if (cls >= numClasses_) throw std::invalid_argument("class out of range");
  labels_.push_back(cls);
  samples_.insert(samples_.end(), samples, samples + numSamples_);
}

void TraceSet::reserve(std::size_t n) {
  labels_.reserve(n);
  samples_.reserve(n * numSamples_);
}

void TraceSet::append(const TraceSet& other) {
  if (other.numSamples_ != numSamples_ || other.numClasses_ != numClasses_) {
    throw std::invalid_argument("trace set shape mismatch");
  }
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

void TraceSet::truncate(std::size_t n) {
  if (n > size()) throw std::invalid_argument("truncate past the end");
  labels_.resize(n);
  samples_.resize(n * numSamples_);
}

std::vector<std::vector<double>> TraceSet::classMeans(
    std::size_t firstN) const {
  const std::size_t n =
      firstN == 0 ? size() : std::min(firstN, size());
  std::vector<std::vector<double>> mean(
      numClasses_, std::vector<double>(numSamples_, 0.0));
  std::vector<std::uint32_t> count(numClasses_, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t c = labels_[i];
    const double* t = trace(i);
    for (std::uint32_t s = 0; s < numSamples_; ++s) mean[c][s] += t[s];
    ++count[c];
  }
  for (std::uint32_t c = 0; c < numClasses_; ++c) {
    if (count[c] == 0) continue;
    for (std::uint32_t s = 0; s < numSamples_; ++s) {
      mean[c][s] /= static_cast<double>(count[c]);
    }
  }
  return mean;
}

std::vector<std::uint32_t> TraceSet::classCounts(std::size_t firstN) const {
  const std::size_t n =
      firstN == 0 ? size() : std::min(firstN, size());
  std::vector<std::uint32_t> count(numClasses_, 0);
  for (std::size_t i = 0; i < n; ++i) ++count[labels_[i]];
  return count;
}

}  // namespace lpa
