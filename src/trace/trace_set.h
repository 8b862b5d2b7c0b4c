#pragma once
// Power-trace container with class labels (the unmasked S-box input).

#include <cstdint>
#include <vector>

namespace lpa {

/// A set of fixed-length power traces, each labelled with its class
/// (the final unmasked value t in F_2^4; 16 classes).
class TraceSet {
 public:
  TraceSet(std::uint32_t numSamples, std::uint32_t numClasses = 16)
      : numSamples_(numSamples), numClasses_(numClasses) {}

  /// Adopts labels.size() traces: `labels` and their row-major `samples`
  /// (numSamples each). Throws std::invalid_argument on a size mismatch or
  /// a label out of range.
  TraceSet(std::uint32_t numSamples, std::vector<std::uint8_t> labels,
           std::vector<double> samples, std::uint32_t numClasses = 16);

  void add(std::uint8_t cls, std::vector<double> trace);
  /// Appends one trace of numSamples() samples read from `samples`.
  void add(std::uint8_t cls, const double* samples);

  /// Pre-allocates storage for `n` traces (acquisition knows its size).
  void reserve(std::size_t n);

  /// Concatenates `other`'s traces after this set's, preserving order.
  /// Shapes (numSamples, numClasses) must match.
  void append(const TraceSet& other);

  /// Keeps the first `n` traces (n <= size()) and drops the rest.
  void truncate(std::size_t n);

  std::uint32_t numSamples() const { return numSamples_; }
  std::uint32_t numClasses() const { return numClasses_; }
  std::size_t size() const { return labels_.size(); }

  std::uint8_t label(std::size_t i) const { return labels_[i]; }
  const double* trace(std::size_t i) const {
    return samples_.data() + i * numSamples_;
  }

  /// Mean trace per class. If `firstN` > 0 only the first `firstN` traces
  /// are used (for convergence studies, Fig. 3). Classes with no trace get
  /// all-zero means.
  std::vector<std::vector<double>> classMeans(std::size_t firstN = 0) const;

  /// Number of traces per class (over the first `firstN`, 0 = all).
  std::vector<std::uint32_t> classCounts(std::size_t firstN = 0) const;

 private:
  std::uint32_t numSamples_;
  std::uint32_t numClasses_;
  std::vector<std::uint8_t> labels_;
  std::vector<double> samples_;  // row-major, size() * numSamples_
};

}  // namespace lpa
