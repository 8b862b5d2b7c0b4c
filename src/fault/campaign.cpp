#include "fault/campaign.h"

#include <utility>

#include "core/leakage.h"
#include "netlist/validate.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/compiled_design.h"
#include "stats/accumulator.h"
#include "trace/sharded_pool.h"

namespace lpa {

namespace {

/// Domain separator between the baseline's trace streams (derived directly
/// from the seed, as in acquire()) and the per-fault sub-streams.
constexpr std::uint64_t kFaultDomainStream = ~1ULL;

SimOptions withBudget(SimOptions sim, std::uint64_t maxEvents) {
  if (sim.maxEvents == 0) sim.maxEvents = maxEvents;
  return sim;
}

FaultDetection worstOf(const FaultTraceCounts& c) {
  if (c.diverged > 0) return FaultDetection::Diverged;
  if (c.silentCorruption > 0) return FaultDetection::SilentCorruption;
  if (c.detectedByDecode > 0) return FaultDetection::DetectedByDecode;
  return FaultDetection::MaskedOut;
}

}  // namespace

std::vector<NetId> maskWireNets(const MaskedSbox& sbox) {
  const Netlist& nl = sbox.netlist();
  std::vector<NetId> nets;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    const std::string& name = nl.inputName(i);
    const bool maskOrRandom =
        !name.empty() && (name[0] == 'm' || name[0] == 'r');
    // TI / higher-order ISW share inputs s{j}_{v}: every share beyond
    // share 0 carries sharing randomness.
    const bool extraShare =
        name.size() >= 2 && name[0] == 's' && name[1] >= '1' && name[1] <= '9';
    if (maskOrRandom || extraShare) nets.push_back(nl.inputs()[i]);
  }
  return nets;
}

std::vector<FaultSpec> stuckAtFaults(const std::vector<NetId>& nets) {
  std::vector<FaultSpec> faults;
  faults.reserve(nets.size() * 2);
  for (NetId net : nets) {
    faults.push_back({FaultKind::StuckAt0, net, 0.0, 0, kInvalidNet});
    faults.push_back({FaultKind::StuckAt1, net, 0.0, 0, kInvalidNet});
  }
  return faults;
}

FaultCampaignResult runFaultCampaign(const MaskedSbox& sbox,
                                     const DelayModel& delays,
                                     const PowerModel& power,
                                     const std::vector<FaultSpec>& faults,
                                     const FaultCampaignConfig& cfg) {
  const Netlist& base = sbox.netlist();
  validateOrThrow(base, "fault campaign base (" + std::string(sbox.name()) +
                            ")");

  const SimOptions simOpts = withBudget(cfg.sim, cfg.maxEventsPerRun);
  FaultCampaignResult result(power.options().numSamples);

  obs::MetricsRegistry* registry =
      cfg.observe ? &obs::MetricsRegistry::global() : nullptr;
  if (registry) registry->counter("fault.campaigns").add(1);

  // Baseline: the plain acquisition protocol, on the un-faulted design but
  // under the same watchdog budget — proving the watchdog is behaviour-
  // preserving on convergent netlists.
  {
    obs::Span span("campaign.baseline (" + std::string(sbox.name()) + ")");
    AcquisitionConfig acq;
    acq.tracesPerClass = cfg.tracesPerClass;
    acq.seed = cfg.seed;
    acq.numThreads = cfg.numThreads;
    acq.progress = cfg.progress;
    EventSim sim(base, delays, simOpts);
    sim.attachMetrics(registry);
    result.baseline = acquire(sbox, sim, power, acq);
    if (cfg.analyzeLeakage) {
      const SpectralAnalysis sa(result.baseline, EstimatorMode::Debiased);
      result.baselineTotalLeakage = sa.totalLeakagePower();
      result.baselineSingleBitLeakage = sa.totalSingleBitLeakage();
    }
  }

  result.reports.resize(faults.size());
  if (cfg.keepFaultTraces) {
    result.faultTraces.assign(faults.size(),
                              TraceSet(power.options().numSamples));
  }
  if (faults.empty()) return result;

  const FaultInjector injector(base, delays);
  const std::uint64_t faultDomain =
      deriveStreamSeed(cfg.seed, kFaultDomainStream);

  obs::Span faultsSpan("campaign.faults (" + std::to_string(faults.size()) +
                       " faults, style " + std::string(sbox.name()) + ")");
  obs::ProgressMeter meter("fault campaign", faults.size(), cfg.progress);

  // Resolve outcome handles once; workers then only do relaxed adds.
  struct OutcomeCounters {
    obs::Counter maskedOut, detectedByDecode, silentCorruption, diverged;
    obs::Counter faultsRun;
  } outcome;
  if (registry) {
    outcome.maskedOut = registry->counter("fault.outcome.masked_out");
    outcome.detectedByDecode =
        registry->counter("fault.outcome.detected_by_decode");
    outcome.silentCorruption =
        registry->counter("fault.outcome.silent_corruption");
    outcome.diverged = registry->counter("fault.outcome.diverged");
    outcome.faultsRun = registry->counter("fault.faults_run");
  }

  const std::uint32_t numSamples = power.options().numSamples;
  // Fault-free design, shared read-only by the workers: every fault's
  // outcomes are judged against its outputs.
  const CompiledDesign baseDesign(base, delays, power);
  const auto runOneFault = [&](std::uint32_t, std::size_t j) {
    const FaultSpec& spec = faults[j];
    FaultReport report;
    report.fault = spec;
    report.description = describeFault(spec, base);

    // Fault j runs acquire()'s fixed-class protocol under its own seed, so
    // everything below depends only on (cfg.seed, j, i).
    const FaultedDesign design = injector.apply(spec);
    EventSim sim(design.netlist, design.delays, simOpts);
    sim.attachMetrics(registry);
    AcquisitionConfig acq;
    acq.tracesPerClass = cfg.tracesPerClass;
    acq.seed = deriveStreamSeed(faultDomain, j);
    acq.numThreads = 1;
    stats::ClassCondAccumulator leakage(numSamples);
    const ClassifiedAcquisition run = acquireClassified(
        sbox, baseDesign, sim, power, acq,
        [&](std::uint8_t label, const double* samples) {
          if (cfg.analyzeLeakage) leakage.addTrace(label, samples);
          if (cfg.keepFaultTraces) result.faultTraces[j].add(label, samples);
        });
    report.counts = run.counts;
    report.maxWatchdogEvents = run.maxWatchdogEvents;
    report.classification = worstOf(report.counts);
    // Per-trace outcome tallies, one relaxed add per outcome per fault
    // (null handles no-op when cfg.observe is off).
    outcome.maskedOut.add(report.counts.maskedOut);
    outcome.detectedByDecode.add(report.counts.detectedByDecode);
    outcome.silentCorruption.add(report.counts.silentCorruption);
    outcome.diverged.add(report.counts.diverged);
    outcome.faultsRun.add(1);
    if (report.counts.diverged > 0) {
      obs::EventJournal::global().warn(
          "watchdog-trip",
          {{"fault", std::to_string(j)},
           {"diverged", std::to_string(report.counts.diverged)},
           {"max_events", std::to_string(report.maxWatchdogEvents)}});
    }
    if (cfg.analyzeLeakage && leakage.totalCount() > 0) {
      const SpectralAnalysis sa(leakage, EstimatorMode::Debiased);
      report.totalLeakage = sa.totalLeakagePower();
      report.singleBitLeakage = sa.totalSingleBitLeakage();
    }
    result.reports[j] = std::move(report);
  };
  const auto describe = [&](std::size_t j) {
    return "fault " + std::to_string(j) + " (" +
           describeFault(faults[j], base) + ", style " +
           std::string(sbox.name()) + ")";
  };

  detail::shardedFor(faults.size(),
                     resolveWorkerThreads(cfg.numThreads, faults.size()),
                     runOneFault, describe, &meter, "fault");
  meter.finish();
  result.faultsCompleted = static_cast<std::uint32_t>(result.reports.size());
  return result;
}

}  // namespace lpa
