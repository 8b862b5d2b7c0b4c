// Per-layer probes: each timed call is one layer's public entry point,
// called from here with the same stimuli and models the workloads use.

#include <cstring>

#include "jobs/trace_digest.h"
#include "sim/batch_sim.h"
#include "sim/compiled_design.h"
#include "sim/compiled_sim.h"
#include "trace/prng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using lpa::SboxStyle;

constexpr int kReps = 3;
/// Engine probes run 1024 traces: 16 full lane groups of the batch engine.
constexpr std::uint32_t kEngineTracesPerClass = 64;
const std::vector<double> kAgedMonths = {12.0, 24.0, 36.0, 48.0};

template <typename Fn>
double timedMs(Tracer& tracer, const std::string& name,
               const std::string& style, const Fn& fn) {
  Tracer::Scope span(&tracer, name, style);
  const auto t0 = Clock::now();
  fn();
  return secondsSince(t0) * 1e3;
}

/// The acquisition protocol's per-trace stimuli (trace/acquisition.h):
/// trace i draws its initial encoding, final encoding and noise seed from
/// Prng(deriveStreamSeed(seed, i)), over a balanced shuffled schedule.
struct Stimuli {
  std::vector<std::uint8_t> cls;
  std::vector<std::vector<std::uint8_t>> init, fin;
  std::vector<std::uint64_t> noise;
  std::size_t size() const { return cls.size(); }
};

Stimuli makeStimuli(const lpa::MaskedSbox& sbox, std::uint64_t seed) {
  Stimuli st;
  st.cls = lpa::balancedClassSchedule(kEngineTracesPerClass, seed);
  for (std::size_t i = 0; i < st.cls.size(); ++i) {
    lpa::Prng rng(lpa::deriveStreamSeed(seed, i));
    st.init.push_back(sbox.encode(0, rng));
    st.fin.push_back(sbox.encode(st.cls[i], rng));
    st.noise.push_back(rng.next() | 1ULL);
  }
  return st;
}

/// One engine's pass over the stimuli: time, exact event tallies, and a
/// digest of the traces (copied out inside the timed loop, as acquisition
/// does).
struct EnginePass {
  double ms = 0.0;
  std::uint64_t popped = 0;
  std::uint64_t committed = 0;
  std::string digest;
};

std::string digestOf(const Stimuli& st, const std::vector<double>& flat,
                     std::uint32_t numSamples) {
  lpa::jobs::DigestAccumulator d;
  for (std::size_t i = 0; i < st.size(); ++i) {
    d.add(static_cast<double>(st.cls[i]));
    for (std::uint32_t s = 0; s < numSamples; ++s) {
      d.add(flat[i * numSamples + s]);
    }
  }
  return d.hex();
}

EnginePass batchPass(const lpa::CompiledDesign& design,
                     const lpa::SimOptions& opts, const Stimuli& st,
                     Tracer& tracer, const std::string& style) {
  constexpr std::size_t kLanes = lpa::BatchSim::kLanes;
  const std::uint32_t ns = design.numSamples;
  std::vector<std::vector<std::vector<std::uint8_t>>> inits, fins;
  std::vector<std::vector<std::uint64_t>> seeds;
  for (std::size_t b = 0; b < st.size(); b += kLanes) {
    inits.emplace_back(st.init.begin() + b, st.init.begin() + b + kLanes);
    fins.emplace_back(st.fin.begin() + b, st.fin.begin() + b + kLanes);
    seeds.emplace_back(st.noise.begin() + b, st.noise.begin() + b + kLanes);
  }
  std::vector<double> flat(st.size() * ns);
  lpa::BatchSim sim(design, opts);
  EnginePass p;
  p.ms = timedMs(tracer, "sim.batch", style, [&] {
    for (std::size_t g = 0; g < inits.size(); ++g) {
      sim.settle(inits[g]);
      sim.runFused(fins[g], seeds[g]);
      for (std::uint32_t l = 0; l < kLanes; ++l) {
        std::memcpy(&flat[(g * kLanes + l) * ns], sim.laneTrace(l),
                    ns * sizeof(double));
      }
    }
  });
  for (std::uint32_t l = 0; l < kLanes; ++l) {
    p.popped += sim.laneStats(l).eventsProcessed;
    p.committed += sim.laneStats(l).committedTransitions;
  }
  p.digest = digestOf(st, flat, ns);
  return p;
}

EnginePass compiledPass(const lpa::CompiledDesign& design,
                        const lpa::SimOptions& opts, const Stimuli& st,
                        Tracer& tracer, const std::string& style) {
  const std::uint32_t ns = design.numSamples;
  std::vector<double> flat(st.size() * ns);
  lpa::CompiledSim sim(design, opts);
  EnginePass p;
  p.ms = timedMs(tracer, "sim.compiled", style, [&] {
    for (std::size_t i = 0; i < st.size(); ++i) {
      sim.settle(st.init[i]);
      const std::vector<double>& tr = sim.runFused(st.fin[i], st.noise[i]);
      std::memcpy(&flat[i * ns], tr.data(), ns * sizeof(double));
    }
  });
  p.popped = sim.stats().eventsProcessed;
  p.committed = sim.stats().committedTransitions;
  p.digest = digestOf(st, flat, ns);
  return p;
}

/// Reference engine (settle + run) and, on its recorded transitions, the
/// power model's sampling: the fault campaign's per-trace path.
struct ReferencePass {
  EnginePass sim;
  double powerMs = 0.0;
};

ReferencePass referencePass(const lpa::Netlist& nl,
                            const lpa::DelayModel& delays,
                            const lpa::PowerModel& power,
                            const lpa::SimOptions& opts, const Stimuli& st,
                            Tracer& tracer, const std::string& style) {
  const std::uint32_t ns = power.options().numSamples;
  std::vector<std::vector<lpa::Transition>> transitions(st.size());
  lpa::EventSim sim(nl, delays, opts);
  ReferencePass p;
  p.sim.ms = timedMs(tracer, "sim.reference", style, [&] {
    for (std::size_t i = 0; i < st.size(); ++i) {
      sim.settle(st.init[i]);
      transitions[i] = sim.run(st.fin[i]);
    }
  });
  p.sim.popped = sim.stats().eventsProcessed;
  p.sim.committed = sim.stats().committedTransitions;
  std::vector<double> flat(st.size() * ns);
  p.powerMs = timedMs(tracer, "power.sample", style, [&] {
    for (std::size_t i = 0; i < st.size(); ++i) {
      const std::vector<double> tr = power.sample(transitions[i], st.noise[i]);
      std::memcpy(&flat[i * ns], tr.data(), ns * sizeof(double));
    }
  });
  p.sim.digest = digestOf(st, flat, ns);
  return p;
}

}  // namespace

std::map<std::string, double> runLayerProbes(const Context& ctx,
                                             const Workload& workload,
                                             Tracer& tracer, Checks& checks) {
  std::map<std::string, double> m;
  Tracer::Scope root(&tracer, "probes");
  const std::uint32_t nproc = hardwareThreads();

  std::vector<double> buildMs;
  for (int r = 0; r < kReps; ++r) {
    buildMs.push_back(timedMs(tracer, "sboxes.build", "", [] {
      for (SboxStyle s : lpa::allSboxStyles()) lpa::makeSbox(s);
    }));
  }
  m["sboxes.build_ms"] = median(buildMs);

  double agingEvaluateMs = 0.0;
  std::vector<double> foldNsPerTrace, estimateMs;
  for (SboxStyle s : lpa::allSboxStyles()) {
    const std::string name = styleKey(s);
    lpa::ExperimentConfig cfg = experimentConfig(ctx);
    cfg.acquisition.tracesPerClass = workload.acquisitionTracesPerClass;

    // Stress profiles are cached per experiment: time a fresh one per rep.
    std::vector<double> stressMs, evaluateMs;
    std::unique_ptr<lpa::SboxExperiment> exp;
    for (int r = 0; r < kReps; ++r) {
      exp = std::make_unique<lpa::SboxExperiment>(s, cfg);
      stressMs.push_back(timedMs(tracer, "aging.stress", name,
                                 [&] { exp->stressProfile(); }));
      double sum = 0.0;
      for (double months : kAgedMonths) {
        sum += timedMs(tracer, "aging.evaluate", name,
                       [&] { exp->agingFactorsAt(months); });
      }
      evaluateMs.push_back(sum);
    }
    m["aging.stress_ms." + name] = median(stressMs);
    agingEvaluateMs += median(evaluateMs);

    const lpa::Netlist& nl = exp->sbox().netlist();
    const lpa::DelayModel delays(nl, cfg.delay);
    const lpa::PowerModel power(nl, cfg.power);
    std::vector<double> lowerMs;
    for (int r = 0; r < kReps; ++r) {
      lowerMs.push_back(timedMs(tracer, "sim.lower", name, [&] {
        const lpa::CompiledDesign design(nl, delays, power);
      }));
    }
    m["sim.lower_ms." + name] = median(lowerMs);

    const lpa::CompiledDesign design(nl, delays, power);
    const Stimuli st = makeStimuli(exp->sbox(), ctx.acquisitionSeed());
    const double traces = static_cast<double>(st.size());
    std::vector<double> batchMs, compiledMs, referenceMs, powerMs;
    for (int r = 0; r < kReps; ++r) {
      const EnginePass b = batchPass(design, cfg.sim, st, tracer, name);
      const EnginePass c = compiledPass(design, cfg.sim, st, tracer, name);
      const ReferencePass ref =
          referencePass(nl, delays, power, cfg.sim, st, tracer, name);
      batchMs.push_back(b.ms);
      compiledMs.push_back(c.ms);
      referenceMs.push_back(ref.sim.ms);
      powerMs.push_back(ref.powerMs);
      if (r == 0) {
        checks.expect(b.digest == c.digest && c.digest == ref.sim.digest,
                      "engine traces bit-identical " + name);
        checks.expect(b.popped == c.popped && c.popped == ref.sim.popped &&
                          b.committed == c.committed &&
                          c.committed == ref.sim.committed,
                      "engine event tallies identical " + name);
        m["sim.events_per_trace." + name] =
            static_cast<double>(b.popped) / traces;
        m["sim.commit_ratio." + name] =
            b.popped == 0 ? 0.0
                          : static_cast<double>(b.committed) /
                                static_cast<double>(b.popped);
      }
    }
    m["sim.batch_ns_per_trace." + name] = median(batchMs) * 1e6 / traces;
    m["sim.compiled_ns_per_trace." + name] = median(compiledMs) * 1e6 / traces;
    m["sim.reference_ns_per_trace." + name] =
        median(referenceMs) * 1e6 / traces;
    m["power.sample_ns_per_trace." + name] = median(powerMs) * 1e6 / traces;

    // Whole acquisitions at this workload's per-call budget, on all
    // hardware threads and on one, interleaved.
    std::vector<double> parMs, serialMs;
    double acquired = 0.0;
    for (int r = 0; r < kReps; ++r) {
      exp->setNumThreads(0);
      std::optional<lpa::TraceSet> ts;
      parMs.push_back(timedMs(tracer, "trace.acquire", name,
                              [&] { ts.emplace(exp->acquireAt(0.0)); }));
      acquired = static_cast<double>(ts->size());
      exp->setNumThreads(1);
      serialMs.push_back(timedMs(tracer, "trace.acquire.serial", name,
                                 [&] { exp->acquireAt(0.0); }));
      lpa::stats::StreamingLeakage stream(ts->numSamples());
      foldNsPerTrace.push_back(
          timedMs(tracer, "stats.fold", name,
                  [&] { stream.addTraceSet(*ts); }) *
          1e6 / acquired);
      estimateMs.push_back(
          timedMs(tracer, "stats.estimate", name, [&] { stream.estimate(); }));
    }
    m["trace.acquire_ns_per_trace." + name] = median(parMs) * 1e6 / acquired;
    m["trace.parallel_efficiency." + name] =
        median(serialMs) / (nproc * median(parMs));
  }
  m["aging.evaluate_ms"] = agingEvaluateMs;
  m["stats.fold_ns_per_trace"] = median(foldNsPerTrace);
  m["stats.estimate_ms"] = median(estimateMs);

  // Campaigns: the per-fault share is the full list minus the baseline-only
  // (empty list) campaign; efficiency compares 1 thread with all of them.
  for (SboxStyle s : maskedStyles()) {
    const std::string name = styleKey(s);
    const CampaignInputs in = campaignInputs(s, &tracer);
    const std::vector<lpa::FaultSpec> none;
    const lpa::FaultCampaignConfig par = faultConfig(ctx, 0);
    const lpa::FaultCampaignConfig serial = faultConfig(ctx, 1);
    std::vector<double> emptyMs, fullMs, serialMs;
    for (int r = 0; r < 2; ++r) {
      serialMs.push_back(timedMs(tracer, "fault.campaign.serial", name, [&] {
        lpa::runFaultCampaign(*in.sbox, *in.delays, *in.power, in.faults,
                              serial);
      }));
      emptyMs.push_back(timedMs(tracer, "fault.baseline", name, [&] {
        lpa::runFaultCampaign(*in.sbox, *in.delays, *in.power, none, par);
      }));
      fullMs.push_back(timedMs(tracer, "fault.campaign", name, [&] {
        lpa::runFaultCampaign(*in.sbox, *in.delays, *in.power, in.faults, par);
      }));
    }
    m["fault.ms_per_fault." + name] =
        (median(fullMs) - median(emptyMs)) / static_cast<double>(in.faults.size());
    m["fault.parallel_efficiency." + name] =
        median(serialMs) / (nproc * median(fullMs));
  }

  // Observation on vs off on one fig7-matrix cell (GLUT, fresh).
  {
    lpa::ExperimentConfig cfg = experimentConfig(ctx);
    cfg.acquisition.tracesPerClass =
        findWorkload("fig7-matrix")->acquisitionTracesPerClass;
    lpa::SboxExperiment on(SboxStyle::Glut, cfg);
    cfg.observe = false;
    lpa::SboxExperiment off(SboxStyle::Glut, cfg);
    std::vector<double> onMs, offMs;
    const auto runOn = [&] {
      onMs.push_back(timedMs(tracer, "obs.on", "GLUT",
                             [&] { on.estimateAt(0.0); }));
    };
    const auto runOff = [&] {
      offMs.push_back(timedMs(tracer, "obs.off", "GLUT",
                              [&] { off.estimateAt(0.0); }));
    };
    for (int r = 0; r < 9; ++r) {
      if (r % 2 == 0) runOn();
      runOff();
      if (r % 2 == 1) runOn();
    }
    m["obs.overhead_pct"] = (median(onMs) / median(offMs) - 1.0) * 100.0;
  }
  return m;
}

}  // namespace perfbench
