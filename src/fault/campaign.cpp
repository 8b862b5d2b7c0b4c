#include "fault/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <optional>
#include <utility>

#include "netlist/validate.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
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

std::string_view faultDetectionName(FaultDetection d) {
  switch (d) {
    case FaultDetection::MaskedOut:
      return "masked-out";
    case FaultDetection::DetectedByDecode:
      return "detected-by-decode";
    case FaultDetection::SilentCorruption:
      return "silent-corruption";
    case FaultDetection::Diverged:
      return "diverged";
  }
  return "?";
}

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
      const SpectralAnalysis sa(result.baseline, cfg.estimator);
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

  // Deadline: cancel the fault loop cooperatively through the progress
  // abort path and hand back the completed prefix instead of throwing.
  const auto start = std::chrono::steady_clock::now();
  std::atomic<bool> deadlineTripped{false};
  obs::ProgressFn sink = cfg.progress;
  if (cfg.deadlineMs > 0) {
    sink = [&](const obs::ProgressUpdate& u) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      if (ms >= static_cast<double>(cfg.deadlineMs)) {
        deadlineTripped.store(true, std::memory_order_relaxed);
        return false;
      }
      return cfg.progress ? cfg.progress(u) : true;
    };
  }
  obs::ProgressMeter meter("fault campaign", faults.size(), sink);

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
  // Fault-free design, shared read-only by the workers: the batch path
  // evaluates a lane group's reference outputs on it in one pass.
  const CompiledDesign baseDesign(base, delays, power);
  const auto runOneFault = [&](std::uint32_t, std::size_t j) {
    const FaultSpec& spec = faults[j];
    FaultReport report;
    report.fault = spec;
    report.description = describeFault(spec, base);

    const FaultedDesign design = injector.apply(spec);

    // Fault j runs acquire()'s fixed-class protocol under its own seed, so
    // everything below depends only on (cfg.seed, j, i).
    const std::uint64_t faultSeed = deriveStreamSeed(faultDomain, j);
    const std::vector<std::uint8_t> schedule =
        balancedClassSchedule(cfg.tracesPerClass, faultSeed);

    // Trace i's stimulus, label and samples; a diverged trace keeps no
    // samples and is left out of the fault's TraceSet.
    const std::size_t n = schedule.size();
    std::vector<TraceStimulus> stimuli(n);
    for (std::size_t i = 0; i < n; ++i) {
      stimuli[i] = classStimulus(sbox, faultSeed, schedule[i], i);
    }
    std::vector<std::uint8_t> labels(n);
    std::vector<double> samples(n * numSamples);
    std::vector<char> diverged(n, 0);
    const auto keep = [&](std::size_t i, const double* trace) {
      labels[i] = stimuli[i].label;
      std::copy_n(trace, numSamples, &samples[i * numSamples]);
    };

    // Per-trace outcome against the fault-free zero-delay outputs
    // `refOut` for the trace's final inputs `fin`.
    const auto classify = [&](const std::vector<std::uint8_t>& faultedOut,
                              const std::vector<std::uint8_t>& refOut,
                              const std::vector<std::uint8_t>& fin) {
      if (faultedOut == refOut) {
        ++report.counts.maskedOut;
        return;
      }
      bool decodeMatches = false;
      try {
        decodeMatches =
            sbox.decode(faultedOut, fin) == sbox.decode(refOut, fin);
      } catch (const std::exception&) {
        decodeMatches = false;  // decode refused the corrupted shares
      }
      if (decodeMatches) {
        ++report.counts.silentCorruption;
      } else {
        ++report.counts.detectedByDecode;
      }
    };

    // Reference engine, trace by trace: serves overlays the fast engines
    // refuse (a forward bridge) and lane groups in which a lane tripped
    // the watchdog, so diverged traces get their exact per-trace payload.
    std::optional<EventSim> sim;
    const auto runReference = [&](const std::uint32_t* ids,
                                  std::size_t count) {
      if (!sim) {
        sim.emplace(design.netlist, design.delays, simOpts);
        sim->attachMetrics(registry);
      }
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = ids[k];
        const TraceStimulus& s = stimuli[i];
        std::vector<Transition> transitions;
        try {
          sim->settle(s.init);
          transitions = sim->run(s.fin);
        } catch (const SimDiverged& d) {
          diverged[i] = 1;
          ++report.counts.diverged;
          if (d.eventsProcessed() > report.maxWatchdogEvents) {
            report.maxWatchdogEvents = d.eventsProcessed();
          }
          obs::EventJournal::global().warn(
              "watchdog-trip",
              {{"fault", std::to_string(j)},
               {"trace", std::to_string(i)},
               {"events", std::to_string(d.eventsProcessed())}});
          continue;  // graceful degradation: next trace
        }
        classify(sim->outputValues(), base.evaluateOutputs(s.fin), s.fin);
        keep(i, power.sample(transitions, s.noiseSeed).data());
      }
    };

    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    if (!design.netlist.isIndexOrdered()) {
      runReference(order.data(), n);
    } else {
      // Batch engine: 64-lane groups with fused deposition, each lane
      // bit-identical to the reference run of its trace. One worker runs
      // every group of the fault, so the groups always take the traces
      // sorted by final encoding, and the samples land at their trace.
      sortByFinalEncoding(order.data(), n, base.inputs().size(),
                          [&](std::uint32_t i) {
                            return std::pair{stimuli[i].init.data(),
                                             stimuli[i].fin.data()};
                          });
      const StimulusFn laneStimulus = [&](std::size_t p) {
        return stimuli[order[p]];
      };
      const CompiledDesign compiled(design.netlist, design.delays, power);
      BatchSim bsim(compiled, simOpts);
      bsim.attachMetrics(registry);
      for (std::size_t g = 0; g < n; g += BatchSim::kLanes) {
        const std::size_t lanes = std::min<std::size_t>(BatchSim::kLanes,
                                                        n - g);
        std::vector<TraceStimulus> group;
        try {
          group = runLaneGroup(bsim, laneStimulus, g, lanes);
        } catch (const SimDiverged&) {
          runReference(&order[g], lanes);
          continue;
        }
        std::vector<std::vector<std::uint8_t>> fins(lanes);
        for (std::size_t l = 0; l < lanes; ++l) fins[l] = group[l].fin;
        const std::vector<std::vector<std::uint8_t>> refOuts =
            BatchSim::evaluateOutputs(baseDesign, fins);
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::uint32_t lane = static_cast<std::uint32_t>(l);
          classify(bsim.outputValues(lane), refOuts[l], fins[l]);
          keep(order[g + l], bsim.laneTrace(lane));
        }
      }
    }

    // The fault's TraceSet, in trace-index order without diverged traces.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (diverged[i]) continue;
      if (kept != i) {
        labels[kept] = labels[i];
        std::copy_n(&samples[i * numSamples], numSamples,
                    &samples[kept * numSamples]);
      }
      ++kept;
    }
    labels.resize(kept);
    samples.resize(kept * numSamples);
    TraceSet traces(numSamples, std::move(labels), std::move(samples));

    report.classification = worstOf(report.counts);
    report.completed = true;
    // Per-trace outcome tallies, one relaxed add per outcome per fault
    // (null handles no-op when cfg.observe is off).
    outcome.maskedOut.add(report.counts.maskedOut);
    outcome.detectedByDecode.add(report.counts.detectedByDecode);
    outcome.silentCorruption.add(report.counts.silentCorruption);
    outcome.diverged.add(report.counts.diverged);
    outcome.faultsRun.add(1);
    if (cfg.analyzeLeakage && traces.size() > 0) {
      const SpectralAnalysis sa(traces, cfg.estimator);
      report.totalLeakage = sa.totalLeakagePower();
      report.singleBitLeakage = sa.totalSingleBitLeakage();
    }
    result.reports[j] = std::move(report);
    if (cfg.keepFaultTraces) result.faultTraces[j] = std::move(traces);
  };
  const auto describe = [&](std::size_t j) {
    return "fault " + std::to_string(j) + " (" +
           describeFault(faults[j], base) + ", style " +
           std::string(sbox.name()) + ")";
  };

  try {
    detail::shardedFor(faults.size(),
                       resolveWorkerThreads(cfg.numThreads, faults.size()),
                       runOneFault, describe, &meter, "fault");
  } catch (const obs::ProgressAborted&) {
    // Only the deadline's own abort is swallowed into a partial result; a
    // user abort keeps throwing as before.
    if (!deadlineTripped.load(std::memory_order_relaxed)) throw;
    result.truncated = true;
  }
  meter.finish();
  for (const FaultReport& r : result.reports) {
    if (r.completed) ++result.faultsCompleted;
  }
  return result;
}

}  // namespace lpa
