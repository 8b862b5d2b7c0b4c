#include "stats/adaptive.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "trace/prng.h"

namespace lpa::stats {

const char* adaptiveStopName(AdaptiveStop stop) {
  switch (stop) {
    case AdaptiveStop::CiTarget:
      return "ci-target";
    case AdaptiveStop::MaxTraces:
      return "max-traces";
  }
  return "unknown";
}

AdaptiveResult adaptiveAcquire(const MaskedSbox& sbox, EventSim& sim,
                               const PowerModel& power,
                               const AcquisitionConfig& cfg,
                               const StreamingLeakage::Options& statsOpt) {
  if (cfg.batchSize == 0 || cfg.batchSize % 16 != 0) {
    throw std::invalid_argument(
        "adaptiveAcquire: batchSize must be a positive multiple of 16");
  }
  const std::uint64_t maxTraces =
      cfg.maxTraces != 0 ? cfg.maxTraces : 16ULL * cfg.tracesPerClass;
  if (maxTraces == 0 || maxTraces % 16 != 0) {
    throw std::invalid_argument(
        "adaptiveAcquire: maxTraces must be a positive multiple of 16");
  }
  if (!(cfg.targetCiRel > 0.0)) {
    throw std::invalid_argument("adaptiveAcquire: targetCiRel must be > 0");
  }

  obs::Span span("adaptive.acquire (target ciRel " +
                 std::to_string(cfg.targetCiRel) + ", budget " +
                 std::to_string(maxTraces) + ")");
  auto& reg = obs::MetricsRegistry::global();

  const std::uint64_t domainSeed =
      deriveStreamSeed(cfg.seed, kAdaptiveBatchStream);
  const auto start = std::chrono::steady_clock::now();

  AdaptiveResult res{TraceSet(power.options().numSamples)};
  res.traces.reserve(maxTraces);
  StreamingLeakage stream(power.options().numSamples, statsOpt);
  ConvergenceMonitor monitor({cfg.targetCiRel, /*minTraces=*/0});

  std::uint64_t acquired = 0;
  while (acquired < maxTraces) {
    const std::uint64_t thisBatch =
        std::min<std::uint64_t>(cfg.batchSize, maxTraces - acquired);

    AcquisitionConfig bcfg = cfg;
    bcfg.adaptive = false;
    bcfg.tracesPerClass = static_cast<std::uint32_t>(thisBatch / 16);
    bcfg.seed = deriveStreamSeed(domainSeed, res.batches);
    bcfg.progress = {};
    if (cfg.progress) {
      // Re-report batch-relative progress against the overall budget. Pure
      // rendering: the wrapped sink sees monotone (done, budget) updates.
      bcfg.progress = [&, base = acquired](const obs::ProgressUpdate& u) {
        obs::ProgressUpdate o;
        o.label = "adaptive-acquire";
        o.done = base + u.done;
        o.total = maxTraces;
        o.elapsedSec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        o.ratePerSec = o.elapsedSec > 0.0
                           ? static_cast<double>(o.done) / o.elapsedSec
                           : 0.0;
        o.etaSec = o.done > 0 ? o.elapsedSec / static_cast<double>(o.done) *
                                    static_cast<double>(o.total - o.done)
                              : -1.0;
        return cfg.progress(o);
      };
    }

    try {
      acquire(sbox, sim, power, bcfg,
              [&](std::uint8_t label, const double* samples) {
                res.traces.add(label, samples);
                stream.addTrace(label, samples);
              });
    } catch (const obs::ProgressAborted& e) {
      throw obs::ProgressAborted("adaptive-acquire", acquired + e.done(),
                                 maxTraces);
    }
    acquired += thisBatch;
    ++res.batches;

    res.estimate = stream.estimate();
    monitor.observe(res.estimate);
    reg.counter("adaptive.batches").add(1);
    reg.counter("adaptive.traces").add(thisBatch);

    if (monitor.converged()) {
      res.stop = AdaptiveStop::CiTarget;
      break;
    }
    res.stop = AdaptiveStop::MaxTraces;
  }

  res.history = monitor.history();
  reg.counter(res.stop == AdaptiveStop::CiTarget
                  ? "adaptive.stop_ci_target"
                  : "adaptive.stop_max_traces")
      .add(1);
  reg.gauge("adaptive.traces_used").set(static_cast<double>(acquired));
  return res;
}

}  // namespace lpa::stats
