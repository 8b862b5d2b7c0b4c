#include "core/experiment.h"

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "trace/prng.h"
#include "trace/sharded_pool.h"

namespace lpa {

SboxExperiment::SboxExperiment(SboxStyle style, const ExperimentConfig& cfg)
    : cfg_(cfg),
      sbox_(makeSbox(style)),
      delays_(sbox_->netlist(), cfg.delay),
      power_(sbox_->netlist(), cfg.power),
      sim_(sbox_->netlist(), delays_, cfg.sim) {
  if (cfg_.observe) {
    sim_.attachMetrics(&obs::MetricsRegistry::global());
    power_.attachMetrics(&obs::MetricsRegistry::global());
  }
}

const StressProfile& SboxExperiment::stressProfile() {
  if (!stress_) {
    obs::Span span("stress.profile (" + std::string(sbox_->name()) + ", " +
                   std::to_string(cfg_.stressCycles) + " cycles)");
    const Netlist& nl = sbox_->netlist();
    const std::size_t cycles = cfg_.stressCycles;
    // Representative field operation: random texts with fresh masks each
    // cycle; duty comes from the settled states, toggles from the events.
    // The encodings are drawn first, in the order one chained simulator
    // consumes them. Cycle c settles on enc[c] and runs enc[c + 1]: run()
    // ends in the settled state of its inputs, so that is the chain's
    // cycle c, and blocks of cycles can run on separate clones.
    Prng rng(cfg_.stressSeed);
    std::vector<std::vector<std::uint8_t>> enc;
    enc.reserve(cycles + 1);
    for (std::size_t c = 0; c <= cycles; ++c) {
      enc.push_back(sbox_->encode(rng.nibble(), rng));
    }
    EventSim sim(nl, delays_, cfg_.sim);
    if (cfg_.observe) sim.attachMetrics(&obs::MetricsRegistry::global());
    const std::uint32_t threads =
        resolveWorkerThreads(cfg_.acquisition.numThreads, cycles);
    const std::size_t window = detail::reorderWindow(threads);
    const std::size_t block =
        std::max<std::size_t>(1, (cycles + window - 1) / window);
    std::vector<EventSim> clones;
    while (clones.size() + 1 < threads) clones.push_back(sim.clone());
    // Per worker; the counts are integers, so the merge order is free.
    std::vector<StressAccumulator> acc(threads,
                                       StressAccumulator(nl.numGates()));
    const auto describe = [&](std::size_t c) {
      return "stress cycle " + std::to_string(c) + " (style " +
             std::string(sbox_->name()) + ")";
    };
    detail::shardedFor(
        (cycles + block - 1) / block, threads,
        [&](std::uint32_t w, std::size_t b) {
          EventSim& worker = w == 0 ? sim : clones[w - 1];
          std::vector<std::uint8_t> state(nl.numGates());
          const std::size_t end = std::min(cycles, b * block + block);
          for (std::size_t c = b * block; c < end; ++c) {
            try {
              worker.settle(enc[c]);
              acc[w].addTransitions(worker.run(enc[c + 1]));
              for (NetId i = 0; i < nl.numGates(); ++i) {
                state[i] = worker.value(i);
              }
              acc[w].addSettledState(state);
            } catch (...) {
              detail::rethrowAsWorkerError(std::current_exception(), c,
                                           [&] { return describe(c); });
            }
          }
        },
        [&](std::size_t b) { return describe(b * block); });
    for (std::size_t w = 1; w < acc.size(); ++w) acc[0].merge(acc[w]);
    stress_ = std::make_unique<StressProfile>(acc[0].finalize());
  }
  return *stress_;
}

AgingFactors SboxExperiment::agingFactorsAt(double months) {
  const StressProfile& profile = stressProfile();
  obs::Span span("aging.evaluate (" + std::to_string(months) + " months)");
  const AgingModel model(cfg_.aging);
  return model.evaluate(profile, months);
}

void SboxExperiment::applyAge(double months) {
  if (months <= 0.0) {
    delays_.clearAging();
    power_.clearAging();
    return;
  }
  const AgingFactors f = agingFactorsAt(months);
  delays_.setAgingFactors(f.delayScale);
  power_.setAgingFactors(f.amplitudeScale);
}

TraceSet SboxExperiment::acquireAt(double months) {
  applyAge(months);
  return acquire(*sbox_, sim_, power_, cfg_.acquisition);
}

stats::AdaptiveResult SboxExperiment::adaptiveAcquireAt(
    double months, const stats::StreamingLeakage::Options& statsOpt) {
  // The resilient group loop with durability off: no checkpoint, one
  // attempt per group, no spot-checks, no deadline.
  AcquisitionConfig cfg = cfg_.acquisition;
  cfg.adaptive = true;
  cfg.deadlineMs = 0;
  jobs::JobConfig job;
  job.retry.maxAttempts = 1;
  job.statsOpt = statsOpt;
  applyAge(months);
  jobs::ResilientResult r =
      jobs::resilientAcquire(*sbox_, sim_, power_, cfg, job);
  return {std::move(r.traces), r.estimate, std::move(r.history),
          static_cast<std::uint32_t>(r.resilience.groupsCompleted),
          r.resilience.stopReason == "ci-target"
              ? stats::AdaptiveStop::CiTarget
              : stats::AdaptiveStop::MaxTraces};
}

jobs::ResilientResult SboxExperiment::resilientAcquireAt(
    double months, const jobs::JobConfig& job) {
  applyAge(months);
  return jobs::resilientAcquire(*sbox_, sim_, power_, cfg_.acquisition, job);
}

void SboxExperiment::attachProfiler(obs::Profiler* profiler) {
  cfg_.acquisition.profiler = profiler;
  sim_.attachProfiler(profiler);
  power_.attachProfiler(profiler);
}

stats::LeakageEstimate SboxExperiment::estimateAt(double months,
                                                  EstimatorMode mode) {
  applyAge(months);
  stats::StreamingLeakage::Options opt;
  opt.mode = mode;
  stats::StreamingLeakage stream(power_.options().numSamples, opt);
  // Traces arrive in index order, so folding them as they come is
  // bit-identical to folding acquireAt()'s TraceSet; none is kept.
  acquireRange(*sbox_, sim_, power_, cfg_.acquisition, 0,
               16u * cfg_.acquisition.tracesPerClass,
               [&stream](std::uint8_t label, const double* samples) {
                 stream.addTrace(label, samples);
               });
  return stream.estimate();
}

}  // namespace lpa
