#include "core/experiment.h"

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "trace/prng.h"

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
    StressAccumulator acc(sbox_->netlist().numGates());
    Prng rng(cfg_.stressSeed);
    EventSim sim(sbox_->netlist(), delays_, cfg_.sim);
    if (cfg_.observe) sim.attachMetrics(&obs::MetricsRegistry::global());
    // Representative field operation: random texts with fresh masks each
    // cycle; duty comes from the settled states, toggles from the events.
    std::vector<std::uint8_t> prev = sbox_->encode(rng.nibble(), rng);
    sim.settle(prev);
    for (std::uint32_t c = 0; c < cfg_.stressCycles; ++c) {
      const std::vector<std::uint8_t> next = sbox_->encode(rng.nibble(), rng);
      const std::vector<Transition> tr = sim.run(next);
      acc.addTransitions(tr);
      // Record the settled state of this cycle.
      std::vector<std::uint8_t> state(sbox_->netlist().numGates());
      for (NetId i = 0; i < sbox_->netlist().numGates(); ++i) {
        state[i] = sim.value(i);
      }
      acc.addSettledState(state);
    }
    stress_ = std::make_unique<StressProfile>(acc.finalize());
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

SpectralAnalysis SboxExperiment::analyzeAt(double months,
                                           EstimatorMode mode) {
  const TraceSet traces = acquireAt(months);
  return SpectralAnalysis(traces, 0, mode);
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
  acquire(*sbox_, sim_, power_, cfg_.acquisition,
          [&stream](std::uint8_t label, const double* samples) {
            stream.addTrace(label, samples);
          });
  return stream.estimate();
}

}  // namespace lpa
