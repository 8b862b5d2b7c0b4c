#include "workloads.h"

#include <memory>

#include "fault/campaign.h"
#include "jobs/trace_digest.h"
#include "obs/metrics.h"
#include "stats/adaptive.h"
#include "stats/convergence.h"
#include "trace/prng.h"

namespace perfbench {

namespace {

using lpa::SboxExperiment;
using lpa::SboxStyle;
using lpa::TraceSet;
using lpa::stats::LeakageEstimate;
using lpa::stats::StreamingLeakage;

std::string cellKey(SboxStyle s, double months) {
  return styleKey(s) + "@" + std::to_string(static_cast<int>(months));
}

/// A design with the models SboxExperiment keeps private, built apart from
/// the experiment so the benchmark can call acquire() and acquireRange() on
/// the experiment's device. Not movable: the simulator refers to the models.
struct Device {
  Device(SboxStyle s, const lpa::ExperimentConfig& cfg)
      : sbox(lpa::makeSbox(s)),
        delays(sbox->netlist(), cfg.delay),
        power(sbox->netlist(), cfg.power),
        sim(sbox->netlist(), delays, cfg.sim) {
    if (cfg.observe) {
      sim.attachMetrics(&lpa::obs::MetricsRegistry::global());
      power.attachMetrics(&lpa::obs::MetricsRegistry::global());
    }
  }
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  std::unique_ptr<lpa::MaskedSbox> sbox;
  lpa::DelayModel delays;
  lpa::PowerModel power;
  lpa::EventSim sim;
};

/// One Device per style, for the traced repetitions. Built before a
/// repetition's clock starts, so traced and untraced repetitions time the
/// same work.
std::vector<std::unique_ptr<Device>> tracedDevices(
    const std::vector<SboxStyle>& styles, const lpa::ExperimentConfig& cfg,
    const Tracer* tracer) {
  std::vector<std::unique_ptr<Device>> devs;
  if (tracer == nullptr) return devs;
  for (SboxStyle s : styles) devs.push_back(std::make_unique<Device>(s, cfg));
  return devs;
}

/// SboxExperiment's aging step applied to the benchmark's own models.
void applyAge(SboxExperiment& exp, Device& dev, double months,
              Tracer* tracer) {
  if (months <= 0.0) {
    dev.delays.clearAging();
    dev.power.clearAging();
    return;
  }
  const lpa::AgingFactors f = [&] {
    Tracer::Scope span(tracer, "aging.evaluate", styleKey(exp.sbox().style()));
    return exp.agingFactorsAt(months);
  }();
  dev.delays.setAgingFactors(f.delayScale);
  dev.power.setAgingFactors(f.amplitudeScale);
}

// ---------------------------------------------------------------- fig7-matrix

constexpr std::uint32_t kFig7TracesPerClass = 2048;
const std::vector<double> kFig7Ages = {0.0, 12.0, 24.0, 36.0, 48.0};
/// Traces per Reference-engine cross-check slice: two lane groups.
constexpr std::size_t kSliceTraces = 128;

lpa::ExperimentConfig fig7Config(const Context& ctx) {
  lpa::ExperimentConfig cfg = experimentConfig(ctx);
  cfg.acquisition.tracesPerClass = kFig7TracesPerClass;
  return cfg;
}

Iteration runFig7(const Context& ctx, Tracer* tracer, Checks& checks) {
  Iteration it;
  const lpa::ExperimentConfig cfg = fig7Config(ctx);
  const std::vector<std::unique_ptr<Device>> devs =
      tracedDevices(lpa::allSboxStyles(), cfg, tracer);
  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<SboxExperiment>> exps;
  {
    Tracer::Scope setup(tracer, "setup");
    for (SboxStyle s : lpa::allSboxStyles()) {
      {
        Tracer::Scope span(tracer, "experiment.build", styleKey(s));
        exps.push_back(std::make_unique<SboxExperiment>(s, cfg));
      }
      Tracer::Scope span(tracer, "aging.stress", styleKey(s));
      exps.back()->stressProfile();
    }
  }
  it.setupS = secondsSince(t0);

  for (std::size_t k = 0; k < exps.size(); ++k) {
    SboxExperiment& exp = *exps[k];
    const std::string name = styleKey(exp.sbox().style());
    for (double months : kFig7Ages) {
      Tracer::Scope cell(tracer, "cell", name);
      LeakageEstimate est;
      checks.attempt("estimateAt " + cellKey(exp.sbox().style(), months),
                     [&] {
        if (tracer == nullptr) {
          est = exp.estimateAt(months, lpa::EstimatorMode::Debiased);
          return;
        }
        // estimateAt == aging + acquire + StreamingLeakage fold + estimate.
        Device& dev = *devs[k];
        applyAge(exp, dev, months, tracer);
        const TraceSet traces = [&] {
          Tracer::Scope span(tracer, "trace.acquire", name);
          return lpa::acquire(*dev.sbox, dev.sim, dev.power, cfg.acquisition);
        }();
        StreamingLeakage::Options opt;
        opt.mode = lpa::EstimatorMode::Debiased;
        StreamingLeakage stream(traces.numSamples(), opt);
        {
          Tracer::Scope span(tracer, "stats.fold", name);
          stream.addTraceSet(traces);
        }
        Tracer::Scope span(tracer, "stats.estimate", name);
        est = stream.estimate();
      });
      it.traces += 16ULL * kFig7TracesPerClass;
      it.digests[cellKey(exp.sbox().style(), months)] = estimateDigest(est);
    }
  }
  it.wallS = secondsSince(t0);
  return it;
}

/// Checks the workload's own full-size Auto acquisition, one cell per style
/// (style k at age k mod 5): the acquireAt traces must fold to the estimate
/// the workload reported for that cell, and a seed-chosen slice of them
/// must be bit-identical to the same index range re-run with acquireRange
/// on the reference engine.
std::map<std::string, std::string> verifyFig7(const Context& ctx,
                                              const Iteration& first,
                                              Checks& checks) {
  std::map<std::string, std::string> pins;
  const lpa::ExperimentConfig cfg = fig7Config(ctx);
  const std::size_t groups = 16ULL * kFig7TracesPerClass / 64;
  const auto& styles = lpa::allSboxStyles();
  for (std::size_t k = 0; k < styles.size(); ++k) {
    const double months = kFig7Ages[k % kFig7Ages.size()];
    const std::size_t begin =
        64 * (lpa::mix64(ctx.seed * 0x100 + k) % (groups - 1));
    const std::string cell = cellKey(styles[k], months);
    checks.attempt("reference slice " + cell, [&] {
      SboxExperiment exp(styles[k], cfg);
      const TraceSet full = exp.acquireAt(months);
      StreamingLeakage::Options opt;
      opt.mode = lpa::EstimatorMode::Debiased;
      StreamingLeakage stream(full.numSamples(), opt);
      stream.addTraceSet(full);
      if (estimateDigest(stream.estimate()) != first.digests.at(cell)) {
        throw std::runtime_error(
            "acquireAt traces do not give the workload's estimate");
      }
      lpa::jobs::DigestAccumulator slice;
      slice.addRange(full, begin, begin + kSliceTraces);
      Device dev(styles[k], cfg);
      applyAge(exp, dev, months, nullptr);
      lpa::AcquisitionConfig acq = cfg.acquisition;
      acq.engine = lpa::SimEngine::Reference;
      const std::string refDigest = traceDigest(lpa::acquireRange(
          *dev.sbox, dev.sim, dev.power, acq, begin, begin + kSliceTraces));
      if (slice.hex() != refDigest) {
        throw std::runtime_error("Auto and Reference slices differ");
      }
      pins["slice." + styleKey(styles[k])] = refDigest;
    });
  }
  return pins;
}

// ------------------------------------------------------------ adaptive-sweep

const std::vector<double> kAdaptiveAges = {0.0, 48.0};
constexpr double kAdaptiveTargetCiRel = 0.35;
constexpr std::uint64_t kAdaptiveMaxTraces = 2048;
/// Per-class size of one adaptive batch: the library's default 128 traces.
constexpr std::uint32_t kAdaptiveBatchTracesPerClass = 128 / 16;

lpa::ExperimentConfig adaptiveConfig(const Context& ctx) {
  lpa::ExperimentConfig cfg = experimentConfig(ctx);
  cfg.acquisition.targetCiRel = kAdaptiveTargetCiRel;
  cfg.acquisition.maxTraces = kAdaptiveMaxTraces;
  return cfg;  // batchSize keeps the library default (128)
}

/// adaptiveAcquireAt broken into its public calls: per batch acquire(),
/// TraceSet::append, StreamingLeakage::addTraceSet and estimate(), with
/// the ConvergenceMonitor stop rule.
lpa::stats::AdaptiveResult adaptiveTraced(SboxExperiment& exp, Device& dev,
                                          double months,
                                          Tracer* tracer) {
  const std::string name = styleKey(exp.sbox().style());
  applyAge(exp, dev, months, tracer);
  const lpa::AcquisitionConfig& cfg = exp.config().acquisition;
  const std::uint32_t numSamples = dev.power.options().numSamples;
  const std::uint64_t domain =
      lpa::deriveStreamSeed(cfg.seed, lpa::stats::kAdaptiveBatchStream);
  lpa::stats::AdaptiveResult res{TraceSet(numSamples), {}, {}};
  res.traces.reserve(cfg.maxTraces);
  StreamingLeakage stream(numSamples, StreamingLeakage::Options());
  lpa::stats::ConvergenceMonitor monitor({cfg.targetCiRel, 0});
  std::uint64_t acquired = 0;
  while (acquired < cfg.maxTraces) {
    lpa::AcquisitionConfig bcfg = cfg;
    bcfg.tracesPerClass = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(cfg.batchSize, cfg.maxTraces - acquired) / 16);
    bcfg.seed = lpa::deriveStreamSeed(domain, res.batches);
    const TraceSet batch = [&] {
      Tracer::Scope span(tracer, "trace.acquire", name);
      return lpa::acquire(*dev.sbox, dev.sim, dev.power, bcfg);
    }();
    {
      Tracer::Scope span(tracer, "trace.append", name);
      res.traces.append(batch);
    }
    {
      Tracer::Scope span(tracer, "stats.fold", name);
      stream.addTraceSet(batch);
    }
    acquired += batch.size();
    ++res.batches;
    {
      Tracer::Scope span(tracer, "stats.estimate", name);
      res.estimate = stream.estimate();
    }
    monitor.observe(res.estimate);
    if (monitor.converged()) {
      res.stop = lpa::stats::AdaptiveStop::CiTarget;
      break;
    }
    res.stop = lpa::stats::AdaptiveStop::MaxTraces;
  }
  return res;
}

Iteration runAdaptive(const Context& ctx, Tracer* tracer, Checks& checks) {
  Iteration it;
  const lpa::ExperimentConfig cfg = adaptiveConfig(ctx);
  const std::vector<std::unique_ptr<Device>> devs =
      tracedDevices(maskedStyles(), cfg, tracer);
  const auto t0 = Clock::now();
  std::vector<std::unique_ptr<SboxExperiment>> exps;
  {
    Tracer::Scope setup(tracer, "setup");
    for (SboxStyle s : maskedStyles()) {
      {
        Tracer::Scope span(tracer, "experiment.build", styleKey(s));
        exps.push_back(std::make_unique<SboxExperiment>(s, cfg));
      }
      Tracer::Scope span(tracer, "aging.stress", styleKey(s));
      exps.back()->stressProfile();
    }
  }
  it.setupS = secondsSince(t0);

  for (std::size_t k = 0; k < exps.size(); ++k) {
    SboxExperiment& exp = *exps[k];
    for (double months : kAdaptiveAges) {
      const std::string key = cellKey(exp.sbox().style(), months);
      Tracer::Scope cell(tracer, "cell", styleKey(exp.sbox().style()));
      checks.attempt("adaptiveAcquireAt " + key, [&] {
        const lpa::stats::AdaptiveResult res =
            tracer == nullptr ? exp.adaptiveAcquireAt(months)
                              : adaptiveTraced(exp, *devs[k], months, tracer);
        it.traces += res.traces.size();
        it.digests[key + ".estimate"] = estimateDigest(res.estimate);
        it.digests[key + ".traces"] = traceDigest(res.traces);
        it.digests[key + ".batches"] = std::to_string(res.batches);
        it.digests[key + ".stop"] = lpa::stats::adaptiveStopName(res.stop);
      });
    }
  }
  it.wallS = secondsSince(t0);
  return it;
}

// ------------------------------------------------------------ fault-campaign

constexpr std::uint32_t kFaultTracesPerClass = 64;

/// Every reported field of a campaign, plus the baseline traces.
std::string campaignDigest(const lpa::FaultCampaignResult& r) {
  lpa::jobs::DigestAccumulator d;
  d.addTraceSet(r.baseline);
  d.add(r.baselineTotalLeakage);
  d.add(r.baselineSingleBitLeakage);
  for (const lpa::FaultReport& f : r.reports) {
    d.addU64(static_cast<std::uint64_t>(f.classification));
    d.addU64(f.counts.maskedOut);
    d.addU64(f.counts.detectedByDecode);
    d.addU64(f.counts.silentCorruption);
    d.addU64(f.counts.diverged);
    d.addU64(f.maxWatchdogEvents);
    d.add(f.totalLeakage);
    d.add(f.singleBitLeakage);
  }
  return d.hex();
}

Iteration runFault(const Context& ctx, Tracer* tracer, Checks& checks) {
  Iteration it;
  const auto t0 = Clock::now();
  std::vector<CampaignInputs> inputs;
  {
    Tracer::Scope setup(tracer, "setup");
    for (SboxStyle s : maskedStyles()) inputs.push_back(campaignInputs(s, tracer));
  }
  it.setupS = secondsSince(t0);

  const lpa::FaultCampaignConfig cfg = faultConfig(ctx, 0);
  for (const CampaignInputs& in : inputs) {
    const std::string name = styleKey(in.sbox->style());
    checks.attempt("runFaultCampaign " + name, [&] {
      Tracer::Scope span(tracer, "fault.campaign", name);
      const lpa::FaultCampaignResult res = lpa::runFaultCampaign(
          *in.sbox, *in.delays, *in.power, in.faults, cfg);
      if (res.faultsCompleted != in.faults.size()) {
        throw std::runtime_error("campaign did not complete every fault");
      }
      lpa::FaultTraceCounts total;
      for (const lpa::FaultReport& r : res.reports) {
        total.maskedOut += r.counts.maskedOut;
        total.detectedByDecode += r.counts.detectedByDecode;
        total.silentCorruption += r.counts.silentCorruption;
        total.diverged += r.counts.diverged;
      }
      it.traces += res.baseline.size() + total.total();
      it.digests[name + ".campaign"] = campaignDigest(res);
      it.digests[name + ".masked_out"] = std::to_string(total.maskedOut);
      it.digests[name + ".detected_by_decode"] =
          std::to_string(total.detectedByDecode);
      it.digests[name + ".silent_corruption"] =
          std::to_string(total.silentCorruption);
      it.digests[name + ".diverged"] = std::to_string(total.diverged);
    });
  }
  it.wallS = secondsSince(t0);
  return it;
}

/// The campaign must report the same results on one worker thread as on
/// all of them.
std::map<std::string, std::string> verifyFault(const Context& ctx,
                                               const Iteration& first,
                                               Checks& checks) {
  const lpa::FaultCampaignConfig cfg = faultConfig(ctx, 1);
  for (SboxStyle s : maskedStyles()) {
    const std::string name = styleKey(s);
    checks.attempt("runFaultCampaign 1 thread " + name, [&] {
      const CampaignInputs in = campaignInputs(s, nullptr);
      const std::string d = campaignDigest(lpa::runFaultCampaign(
          *in.sbox, *in.delays, *in.power, in.faults, cfg));
      const auto ref = first.digests.find(name + ".campaign");
      if (ref == first.digests.end() || ref->second != d) {
        throw std::runtime_error("1-thread campaign differs from " +
                                 std::to_string(hardwareThreads()) +
                                 "-thread campaign");
      }
    });
  }
  return {};
}

const Workload kWorkloads[] = {
    {"fig7-matrix", runFig7, verifyFig7, kFig7TracesPerClass},
    {"adaptive-sweep", runAdaptive, nullptr, kAdaptiveBatchTracesPerClass},
    {"fault-campaign", runFault, verifyFault, kFaultTracesPerClass},
};

}  // namespace

lpa::FaultCampaignConfig faultConfig(const Context& ctx,
                                     std::uint32_t threads) {
  lpa::FaultCampaignConfig cfg;
  cfg.tracesPerClass = kFaultTracesPerClass;
  cfg.seed = ctx.acquisitionSeed();
  cfg.numThreads = threads;
  cfg.sim = lpa::ExperimentConfig().sim;
  return cfg;
}

CampaignInputs campaignInputs(SboxStyle s, Tracer* tracer) {
  const lpa::ExperimentConfig ecfg;
  CampaignInputs in;
  const std::string name = styleKey(s);
  {
    Tracer::Scope span(tracer, "sboxes.build", name);
    in.sbox = lpa::makeSbox(s);
  }
  {
    Tracer::Scope span(tracer, "models.build", name);
    in.delays.emplace(in.sbox->netlist(), ecfg.delay);
    in.power.emplace(in.sbox->netlist(), ecfg.power);
  }
  Tracer::Scope span(tracer, "fault.list", name);
  in.faults = lpa::stuckAtFaults(lpa::maskWireNets(*in.sbox));
  return in;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
