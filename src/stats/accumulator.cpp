#include "stats/accumulator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace lpa::stats {

namespace {

// Two samples per operation (SSE2 on baseline x86-64). Elementwise -, /, +
// and * round each lane exactly like the scalar expressions (no
// reassociation, no contraction into FMA at the build's flags), so every
// sample gets the same IEEE operations as the scalar tails below.
typedef double Pair __attribute__((vector_size(16)));

}  // namespace

ClassCondAccumulator::ClassCondAccumulator(std::uint32_t numSamples,
                                           std::uint32_t numClasses)
    : numSamples_(numSamples), numClasses_(numClasses) {
  if (numClasses == 0) {
    throw std::invalid_argument("ClassCondAccumulator: numClasses must be > 0");
  }
  count_.assign(numClasses_, 0);
  mean_.assign(static_cast<std::size_t>(numClasses_) * numSamples_, 0.0);
  m2_.assign(static_cast<std::size_t>(numClasses_) * numSamples_, 0.0);
}

void ClassCondAccumulator::addTrace(std::uint8_t cls, const double* x) {
  if (cls >= numClasses_) {
    throw std::out_of_range("ClassCondAccumulator::addTrace: class label " +
                            std::to_string(cls) + " >= numClasses " +
                            std::to_string(numClasses_));
  }
  ++count_[cls];
  const double k = static_cast<double>(count_[cls]);
  // The sample count in a local, as in merge: the memcpy stores below may
  // alias any member, so a member bound would be reloaded every pair.
  const std::uint32_t n = numSamples_;
  double* mean = mean_.data() + static_cast<std::size_t>(cls) * n;
  double* m2 = m2_.data() + static_cast<std::size_t>(cls) * n;
  // Two samples per operation, then a scalar tail.
  const Pair kk = {k, k};
  std::uint32_t s = 0;
  for (; s + 2 <= n; s += 2) {
    Pair xs, ms, m2s;
    std::memcpy(&xs, x + s, sizeof(Pair));
    std::memcpy(&ms, mean + s, sizeof(Pair));
    std::memcpy(&m2s, m2 + s, sizeof(Pair));
    const Pair delta = xs - ms;
    ms += delta / kk;
    m2s += delta * (xs - ms);
    std::memcpy(mean + s, &ms, sizeof(Pair));
    std::memcpy(m2 + s, &m2s, sizeof(Pair));
  }
  for (; s < n; ++s) {
    const double delta = x[s] - mean[s];
    mean[s] += delta / k;
    m2[s] += delta * (x[s] - mean[s]);
  }
}

void ClassCondAccumulator::addTraceSet(const TraceSet& traces,
                                       std::size_t firstN) {
  if (traces.numSamples() != numSamples_) {
    throw std::invalid_argument(
        "ClassCondAccumulator::addTraceSet: sample-count mismatch");
  }
  std::size_t n = traces.size();
  if (firstN > 0 && firstN < n) n = firstN;
  for (std::size_t i = 0; i < n; ++i) {
    addTrace(traces.label(i), traces.trace(i));
  }
}

void ClassCondAccumulator::merge(const ClassCondAccumulator& other) {
  if (other.numSamples_ != numSamples_ || other.numClasses_ != numClasses_) {
    throw std::invalid_argument("ClassCondAccumulator::merge: shape mismatch");
  }
  // The sample count in a local: the memcpy stores below may alias any
  // member, so a member bound would be reloaded every iteration.
  const std::size_t n = numSamples_;
  for (std::uint32_t c = 0; c < numClasses_; ++c) {
    const std::uint64_t na = count_[c];
    const std::uint64_t nb = other.count_[c];
    if (nb == 0) continue;
    const std::size_t row = c * n;
    double* mean = mean_.data() + row;
    double* m2 = m2_.data() + row;
    const double* omean = other.mean_.data() + row;
    const double* om2 = other.m2_.data() + row;
    if (na == 0) {
      count_[c] = nb;
      std::copy_n(omean, n, mean);
      std::copy_n(om2, n, m2);
      continue;
    }
    const double da = static_cast<double>(na);
    const double db = static_cast<double>(nb);
    const double dab = da + db;
    // The two quotients do not depend on the sample. Two samples per
    // operation and a scalar tail, as in addTrace: each sample gets the
    // scalar expressions' operations in their order.
    const double wb = db / dab;
    const double wab = da * db / dab;
    const Pair wbs = {wb, wb};
    const Pair wabs = {wab, wab};
    const auto mergePair = [&](std::size_t s) {
      Pair ms, m2s, oms, om2s;
      std::memcpy(&ms, mean + s, sizeof(Pair));
      std::memcpy(&m2s, m2 + s, sizeof(Pair));
      std::memcpy(&oms, omean + s, sizeof(Pair));
      std::memcpy(&om2s, om2 + s, sizeof(Pair));
      const Pair delta = oms - ms;
      ms += delta * wbs;
      m2s += om2s + delta * delta * wabs;
      std::memcpy(mean + s, &ms, sizeof(Pair));
      std::memcpy(m2 + s, &m2s, sizeof(Pair));
    };
    std::size_t s = 0;
    for (; s + 4 <= n; s += 4) {
      mergePair(s);
      mergePair(s + 2);
    }
    for (; s + 2 <= n; s += 2) mergePair(s);
    for (; s < n; ++s) {
      const double delta = omean[s] - mean[s];
      mean[s] += delta * wb;
      m2[s] += om2[s] + delta * delta * wab;
    }
    count_[c] = na + nb;
  }
}

std::uint64_t ClassCondAccumulator::totalCount() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : count_) total += c;
  return total;
}

std::uint64_t ClassCondAccumulator::minClassCount() const {
  std::uint64_t lo = count_.empty() ? 0 : count_[0];
  for (std::uint64_t c : count_) {
    if (c < lo) lo = c;
  }
  return lo;
}

double ClassCondAccumulator::variance(std::uint32_t cls,
                                      std::uint32_t s) const {
  if (count_[cls] < 2) return 0.0;
  return m2_[static_cast<std::size_t>(cls) * numSamples_ + s] /
         static_cast<double>(count_[cls] - 1);
}

std::vector<double> ClassCondAccumulator::noiseFloorPerSample() const {
  const std::size_t samples = numSamples_;
  std::vector<double> floor(samples, 0.0);
  double* out = floor.data();
  for (std::uint32_t c = 0; c < numClasses_; ++c) {
    if (count_[c] < 2) continue;
    const double n = static_cast<double>(count_[c]);
    const Pair ns = {n, n};
    const Pair n1s = {n - 1.0, n - 1.0};
    const double* m2 = m2_.data() + c * samples;
    std::size_t s = 0;
    for (; s + 2 <= samples; s += 2) {
      Pair m2s, fs;
      std::memcpy(&m2s, m2 + s, sizeof(Pair));
      std::memcpy(&fs, out + s, sizeof(Pair));
      fs += m2s / n1s / ns;
      std::memcpy(out + s, &fs, sizeof(Pair));
    }
    for (; s < samples; ++s) {
      const double var = m2[s] / (n - 1.0);
      out[s] += var / n;
    }
  }
  const double classes = static_cast<double>(numClasses_);
  const Pair cs = {classes, classes};
  std::size_t s = 0;
  for (; s + 2 <= samples; s += 2) {
    Pair fs;
    std::memcpy(&fs, out + s, sizeof(Pair));
    fs /= cs;
    std::memcpy(out + s, &fs, sizeof(Pair));
  }
  for (; s < samples; ++s) out[s] /= classes;
  return floor;
}

}  // namespace lpa::stats
