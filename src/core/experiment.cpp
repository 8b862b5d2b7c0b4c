#include "core/experiment.h"

#include <bit>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "sim/compiled_design.h"
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
    // cycle c, and the cycles are independent of each other. Lane l of
    // lane group g runs cycle 64 g + l on the batch engine.
    Prng rng(cfg_.stressSeed);
    std::vector<std::vector<std::uint8_t>> enc;
    enc.reserve(cycles + 1);
    for (std::size_t c = 0; c <= cycles; ++c) {
      enc.push_back(sbox_->encode(rng.nibble(), rng));
    }
    const std::size_t lanesPerGroup = BatchSim::kLanes;
    const std::size_t groups = (cycles + lanesPerGroup - 1) / lanesPerGroup;
    const CompiledDesign design(nl, delays_, power_);
    BatchSim sim(design, cfg_.sim);
    if (cfg_.observe) sim.attachMetrics(&obs::MetricsRegistry::global());
    const std::uint32_t threads =
        resolveWorkerThreads(cfg_.acquisition.numThreads, groups);
    std::vector<BatchSim> clones;
    while (clones.size() + 1 < threads) clones.push_back(sim.clone());
    // Per worker; the counts are integers, so the merge order is free. A
    // group whose watchdog fires re-runs its cycles one by one on the
    // worker's reference EventSim, made on its first trip, which names
    // the first failing cycle.
    std::vector<StressAccumulator> acc(threads,
                                       StressAccumulator(nl.numGates()));
    std::vector<std::optional<EventSim>> reference(threads);
    const auto describe = [&](std::size_t c) {
      return "stress cycle " + std::to_string(c) + " (style " +
             std::string(sbox_->name()) + ")";
    };
    const auto runReference = [&](std::uint32_t w, std::size_t first,
                                  std::size_t last) {
      if (!reference[w]) {
        reference[w].emplace(nl, delays_, cfg_.sim);
        if (cfg_.observe) {
          reference[w]->attachMetrics(&obs::MetricsRegistry::global());
        }
      }
      EventSim& ref = *reference[w];
      std::vector<std::uint8_t> state(nl.numGates());
      for (std::size_t c = first; c < last; ++c) {
        try {
          ref.settle(enc[c]);
          acc[w].addTransitions(ref.run(enc[c + 1]));
          for (NetId i = 0; i < nl.numGates(); ++i) state[i] = ref.value(i);
          acc[w].addSettledState(state);
        } catch (...) {
          detail::rethrowAsWorkerError(std::current_exception(), c,
                                       [&] { return describe(c); });
        }
      }
    };
    detail::shardedFor(
        groups, threads,
        [&](std::uint32_t w, std::size_t g) {
          BatchSim& worker = w == 0 ? sim : clones[w - 1];
          const std::size_t first = g * lanesPerGroup;
          const std::size_t last = std::min(cycles, first + lanesPerGroup);
          const std::vector<std::vector<std::uint8_t>> settled(
              enc.begin() + first, enc.begin() + last);
          const std::vector<std::vector<std::uint8_t>> applied(
              enc.begin() + first + 1, enc.begin() + last + 1);
          std::vector<std::uint64_t> toggles(nl.numGates(), 0);
          try {
            worker.settle(settled);
            worker.runCounting(applied, toggles);
          } catch (const SimDiverged&) {
            runReference(w, first, last);
            return;
          } catch (...) {
            detail::rethrowAsWorkerError(std::current_exception(), first,
                                         [&] { return describe(first); });
          }
          std::vector<std::uint64_t> high(nl.numGates());
          for (NetId i = 0; i < nl.numGates(); ++i) {
            high[i] = static_cast<std::uint64_t>(
                std::popcount(worker.laneValues(i)));
          }
          acc[w].addCycles(last - first, high, toggles);
        },
        [&](std::size_t g) { return describe(g * lanesPerGroup); });
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
