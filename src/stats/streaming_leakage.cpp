#include "stats/streaming_leakage.h"

#include <bit>
#include <stdexcept>

#include "obs/metrics.h"

namespace lpa::stats {

StreamingLeakage::StreamingLeakage(std::uint32_t numSamples, Options opt)
    : opt_(opt), all_(numSamples, 16) {
  if (opt_.numFolds < 2) {
    throw std::invalid_argument("StreamingLeakage: numFolds must be >= 2");
  }
  if (!(opt_.confidence > 0.0) || !(opt_.confidence < 1.0)) {
    throw std::invalid_argument(
        "StreamingLeakage: confidence must be in (0, 1)");
  }
  folds_.reserve(opt_.numFolds);
  for (std::uint32_t k = 0; k < opt_.numFolds; ++k) {
    folds_.emplace_back(numSamples, 16);
  }
}

void StreamingLeakage::addTrace(std::uint8_t cls, const double* x) {
  all_.addTrace(cls, x);
  folds_[next_ % opt_.numFolds].addTrace(cls, x);
  ++next_;
}

void StreamingLeakage::addTraceSet(const TraceSet& ts) {
  if (ts.numSamples() != all_.numSamples()) {
    throw std::invalid_argument(
        "StreamingLeakage::addTraceSet: sample-count mismatch");
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    addTrace(ts.label(i), ts.trace(i));
  }
}

SpectralAnalysis StreamingLeakage::analysis() const {
  return SpectralAnalysis(all_, opt_.mode);
}

LeakageEstimate StreamingLeakage::estimate() const {
  // Resolved once: every registry lookup takes the registry's mutex.
  static const obs::Counter estimates =
      obs::MetricsRegistry::global().counter("stats.estimates");
  estimates.add(1);

  LeakageEstimate e;
  e.traces = all_.totalCount();
  e.minClassCount = all_.minClassCount();
  e.mode = opt_.mode;
  e.confidence = opt_.confidence;

  // Point estimates from the bit-identity path (sums in the exact order the
  // batch SpectralAnalysis aggregate helpers use them).
  const SpectralAnalysis full(all_, opt_.mode);
  e.total = full.totalLeakagePower();
  e.singleBit = full.totalSingleBitLeakage();
  e.multiBit = full.totalMultiBitLeakage();
  e.singleBitRatio = full.singleBitToTotalRatio();

  // Delete-one-fold replicates. CIs only become finite once every replicate
  // has >= 2 traces in every class (so its debiased floor is defined).
  //
  // Replicate k merges folds 0..k-1 and then k+1..K-1, left to right, into
  // an empty accumulator. Its first part is the running prefix: replicate
  // k continues from a copy of it (replicate 0 from empty, and the last
  // replicate is the prefix itself), and the prefix then takes fold k.
  // Both accumulators are locals, so estimate() stays safe to call
  // concurrently. A replicate's aggregates sum its per-source totals over
  // u in u order.
  const std::uint32_t numFolds = opt_.numFolds;
  std::vector<double> totalRep, singleRep, multiRep;
  std::array<std::vector<double>, 16> coeffRep;
  totalRep.reserve(numFolds);
  singleRep.reserve(numFolds);
  multiRep.reserve(numFolds);
  for (std::uint32_t u = 1; u < 16; ++u) coeffRep[u].reserve(numFolds);
  ClassCondAccumulator prefix(all_.numSamples(), 16);
  ClassCondAccumulator loo(all_.numSamples(), 16);
  bool allValid = true;
  for (std::uint32_t k = 0; k < numFolds; ++k) {
    for (std::uint32_t c = 0; c < 16; ++c) {
      if (all_.count(c) - folds_[k].count(c) < 2) allValid = false;
    }
    if (!allValid) break;
    const bool last = k + 1 == numFolds;
    if (!last) {
      if (k > 0) loo = prefix;
      for (std::uint32_t j = k + 1; j < numFolds; ++j) loo.merge(folds_[j]);
    }
    const SpectralAnalysis sa(last ? prefix : loo, opt_.mode);
    double total = 0.0, singleBit = 0.0, multiBit = 0.0;
    for (std::uint32_t u = 1; u < 16; ++u) {
      const double energy = sa.totalSourceEnergy(u);
      coeffRep[u].push_back(energy);
      total += energy;
      if (std::popcount(u) == 1) {
        singleBit += energy;
      } else {
        multiBit += energy;
      }
    }
    totalRep.push_back(total);
    singleRep.push_back(singleBit);
    multiRep.push_back(multiBit);
    if (!last) prefix.merge(folds_[k]);
  }

  if (allValid) {
    e.totalCi = jackknifeCi(totalRep, e.total, opt_.confidence);
    e.singleBitCi = jackknifeCi(singleRep, e.singleBit, opt_.confidence);
    e.multiBitCi = jackknifeCi(multiRep, e.multiBit, opt_.confidence);
  } else {
    e.totalCi.estimate = e.total;
    e.singleBitCi.estimate = e.singleBit;
    e.multiBitCi.estimate = e.multiBit;
  }
  for (std::uint32_t u = 1; u < 16; ++u) {
    e.coefficients[u].energy = full.totalSourceEnergy(u);
    e.coefficients[u].halfWidth =
        allValid ? jackknifeCi(coeffRep[u], e.coefficients[u].energy,
                               opt_.confidence)
                       .halfWidth
                 : std::numeric_limits<double>::infinity();
  }
  return e;
}

}  // namespace lpa::stats
