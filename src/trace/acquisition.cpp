#include "trace/acquisition.h"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/present.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "sim/compiled_sim.h"
#include "stats/adaptive.h"
#include "trace/sharded_pool.h"

namespace lpa {

namespace {

/// Stream index of the schedule shuffle; far outside any trace index.
constexpr std::uint64_t kScheduleStream = ~0ULL;

/// Resolves the requested engine against the design's eligibility for the
/// flat-table fast paths (compiled and batch share the same design-level
/// eligibility: an index-ordered netlist, which every fault overlay but a
/// forward bridge keeps). Auto never throws: an ineligible design falls
/// back to the reference engine, and below one full lane group the batch
/// engine's clustering cannot pay off, so Auto serves small budgets with
/// the compiled scalar path. Forcing Compiled or Batch on an ineligible
/// design throws; a forced Batch below the lane width runs a partial group.
SimEngine resolveEngine(SimEngine requested, const EventSim& sim,
                        const PowerModel& power, std::size_t traceCount) {
  const bool eligible = sim.netlist().isIndexOrdered() &&
                        power.numGates() == sim.netlist().numGates() &&
                        sim.netlist().numGates() < (std::size_t(1) << 24);
  switch (requested) {
    case SimEngine::Reference:
      return SimEngine::Reference;
    case SimEngine::Compiled:
      if (!eligible) {
        throw std::invalid_argument(
            "acquisition: compiled engine requested but the design is "
            "ineligible (a fanin rewired forward by a bridge overlay, or a "
            "power model size mismatch)");
      }
      return SimEngine::Compiled;
    case SimEngine::Batch:
      if (!eligible) {
        throw std::invalid_argument(
            "acquisition: batch engine requested but the design is "
            "ineligible (a fanin rewired forward by a bridge overlay, or a "
            "power model size mismatch)");
      }
      return SimEngine::Batch;
    case SimEngine::Auto:
      break;
  }
  if (!eligible) return SimEngine::Reference;
  return traceCount >= BatchSim::kLanes ? SimEngine::Batch
                                        : SimEngine::Compiled;
}

/// Resolves the quantized-grid opt-in (DESIGN.md §14) against the
/// *requested* engine: SampleGrid is honored only with an explicitly
/// forced Batch engine. Auto deliberately ignores it — Auto-served runs
/// must keep the exact engines' pinned determinism digest — and forcing a
/// scalar engine together with SampleGrid is a contradiction (the scalar
/// engines are exact by contract), reported here rather than as a
/// confusing constructor throw deep inside a worker.
TimeQuantization resolveQuantization(SimEngine requested,
                                     TimeQuantization quantization) {
  if (quantization == TimeQuantization::Exact) return quantization;
  switch (requested) {
    case SimEngine::Batch:
      return quantization;
    case SimEngine::Auto:
      return TimeQuantization::Exact;  // Auto never selects quantized mode
    case SimEngine::Reference:
    case SimEngine::Compiled:
      break;
  }
  throw std::invalid_argument(
      "acquisition: sample-grid time quantization requires the batch "
      "engine (engine = SimEngine::Batch); the scalar engines are exact "
      "by contract");
}

/// Journals the end of an acquisition block: "acquire-finish" on normal
/// exit, "acquire-abort" when unwinding (worker failure, cooperative
/// abort), so the /events tail shows how every acquisition ended.
struct JournalAcquireScope {
  const char* label;
  int exceptions = std::uncaught_exceptions();
  ~JournalAcquireScope() {
    if (std::uncaught_exceptions() > exceptions) {
      obs::EventJournal::global().warn("acquire-abort", {{"label", label}});
    } else {
      obs::EventJournal::global().info("acquire-finish", {{"label", label}});
    }
  }
};

/// Runs `body(sim, i, shard)` for every trace index in [0, n), sharded over
/// `threads` workers in contiguous index blocks, and concatenates the
/// per-worker shards in index order. `body` must depend only on the trace
/// index (the determinism contract), which is what makes the sharding
/// invisible in the result. `Sim` is EventSim or CompiledSim (same
/// clone()-for-worker-pools contract). Failures carry the trace identity
/// rendered by `describe(i)` and abort the remaining workers (see
/// trace/sharded_pool.h).
template <typename Sim, typename TraceBody, typename Describe>
TraceSet shardedAcquire(Sim& sim, std::uint32_t numSamples,
                        std::size_t n, std::uint32_t threads,
                        const TraceBody& body, const Describe& describe,
                        const obs::ProgressFn& progress,
                        const char* spanLabel) {
  obs::Span span(std::string(spanLabel) + " (" + std::to_string(n) +
                 " traces, " + std::to_string(threads) + " threads)");
  obs::ProgressMeter meter(spanLabel, n, progress);
  obs::MetricsRegistry::global().counter("acquire.traces_total").add(n);
  obs::EventJournal::global().info(
      "acquire-start", {{"label", spanLabel},
                        {"traces", std::to_string(n)},
                        {"threads", std::to_string(threads)}});
  JournalAcquireScope journalScope{spanLabel};

  TraceSet traces(numSamples);
  traces.reserve(n);
  if (threads <= 1) {
    detail::shardedFor(
        n, 1, [&](std::uint32_t, std::size_t i) { body(sim, i, traces); },
        describe, &meter, spanLabel);
    meter.finish();
    return traces;
  }

  std::vector<Sim> sims;
  sims.reserve(threads);
  std::vector<TraceSet> shards(threads, TraceSet(numSamples));
  for (std::uint32_t w = 0; w < threads; ++w) {
    sims.push_back(sim.clone());
    shards[w].reserve(n * (w + 1) / threads - n * w / threads);
  }
  detail::shardedFor(
      n, threads,
      [&](std::uint32_t w, std::size_t i) { body(sims[w], i, shards[w]); },
      describe, &meter, spanLabel);
  meter.finish();
  {
    obs::Span mergeSpan(std::string(spanLabel) + " merge shards");
    for (const TraceSet& shard : shards) traces.append(shard);
  }
  return traces;
}

/// Batch-engine twin of shardedAcquire: the sharded work item is a *lane
/// group* of up to BatchSim::kLanes consecutive trace indices, so trace
/// grouping is a global function of the index — which keeps the result
/// thread-count invariant (worker shards cover contiguous group ranges and
/// are concatenated in group order). `body(worker, g, out)` simulates
/// group g's lanes and appends its traces to `out` in lane order. Progress
/// stays trace-denominated: the body's groups step the meter by their lane
/// count (shardedFor contributes the final step of each group).
template <typename GroupBody, typename Describe>
TraceSet shardedBatchAcquire(BatchSim& proto, std::uint32_t numSamples,
                             std::size_t numTraces,
                             std::uint32_t requestedThreads,
                             const GroupBody& body, const Describe& describe,
                             const obs::ProgressFn& progress,
                             const char* spanLabel) {
  const std::size_t numGroups =
      (numTraces + BatchSim::kLanes - 1) / BatchSim::kLanes;
  const std::uint32_t threads =
      resolveWorkerThreads(requestedThreads, numGroups);
  obs::Span span(std::string(spanLabel) + " (" + std::to_string(numTraces) +
                 " traces, " + std::to_string(threads) +
                 " threads, batch engine)");
  obs::ProgressMeter meter(spanLabel, numTraces, progress);
  obs::MetricsRegistry::global().counter("acquire.traces_total")
      .add(numTraces);
  obs::EventJournal::global().info(
      "acquire-start", {{"label", spanLabel},
                        {"traces", std::to_string(numTraces)},
                        {"threads", std::to_string(threads)},
                        {"engine", "batch"}});
  JournalAcquireScope journalScope{spanLabel};
  const auto lanesOf = [&](std::size_t g) {
    return std::min<std::size_t>(BatchSim::kLanes,
                                 numTraces - g * BatchSim::kLanes);
  };

  TraceSet traces(numSamples);
  traces.reserve(numTraces);
  if (threads <= 1) {
    detail::shardedFor(
        numGroups, 1,
        [&](std::uint32_t, std::size_t g) {
          body(proto, g, traces);
          meter.step(lanesOf(g) - 1);
        },
        describe, &meter, spanLabel);
    meter.finish();
    return traces;
  }

  std::vector<BatchSim> sims;
  sims.reserve(threads);
  std::vector<TraceSet> shards(threads, TraceSet(numSamples));
  for (std::uint32_t w = 0; w < threads; ++w) {
    sims.push_back(proto.clone());
    shards[w].reserve((numGroups * (w + 1) / threads -
                       numGroups * w / threads) *
                      BatchSim::kLanes);
  }
  detail::shardedFor(
      numGroups, threads,
      [&](std::uint32_t w, std::size_t g) {
        body(sims[w], g, shards[w]);
        meter.step(lanesOf(g) - 1);
      },
      describe, &meter, spanLabel);
  meter.finish();
  {
    obs::Span mergeSpan(std::string(spanLabel) + " merge shards");
    for (const TraceSet& shard : shards) traces.append(shard);
  }
  return traces;
}

}  // namespace

std::vector<std::uint8_t> balancedClassSchedule(std::uint32_t tracesPerClass,
                                                std::uint64_t seed) {
  // Balanced, shuffled schedule of final classes, from a dedicated stream
  // so trace streams never alias it.
  Prng srng(deriveStreamSeed(seed, kScheduleStream));
  std::vector<std::uint8_t> schedule;
  schedule.reserve(16u * tracesPerClass);
  for (std::uint32_t r = 0; r < tracesPerClass; ++r) {
    for (std::uint8_t c = 0; c < 16; ++c) schedule.push_back(c);
  }
  for (std::size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1],
              schedule[srng.below(static_cast<std::uint32_t>(i))]);
  }
  return schedule;
}

TraceStimulus classStimulus(const MaskedSbox& sbox, std::uint64_t seed,
                            std::uint8_t initialValue, std::uint8_t cls,
                            std::size_t i) {
  // All randomness of trace i — masks, gadget bits, noise seed — comes
  // from this stream and hence depends only on (seed, i).
  Prng rng(deriveStreamSeed(seed, i));
  TraceStimulus s;
  s.init = sbox.encode(initialValue, rng);
  s.fin = sbox.encode(cls, rng);
  s.noiseSeed = rng.next() | 1ULL;
  s.label = cls;
  s.expected = kPresentSbox[cls];
  return s;
}

std::vector<TraceStimulus> runLaneGroup(BatchSim& sim,
                                        const StimulusFn& stimulus,
                                        std::size_t base, std::size_t lanes) {
  std::vector<TraceStimulus> group;
  group.reserve(lanes);
  std::vector<std::vector<std::uint8_t>> inits(lanes), fins(lanes);
  std::vector<std::uint64_t> seeds(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    group.push_back(stimulus(base + l));
    inits[l] = group[l].init;
    fins[l] = group[l].fin;
    seeds[l] = group[l].noiseSeed;
  }
  sim.settle(inits);
  sim.runFused(fins, seeds);
  return group;
}

namespace {

/// One acquisition protocol: how trace i is stimulated, and how its traces
/// are named in failures, spans, the journal and progress.
struct Protocol {
  StimulusFn stimulus;
  const char* noun;       ///< "<noun> trace i" in failure descriptions
  const char* labelName;  ///< what the trace label is ("class", ...)
  const char* spanLabel;  ///< span / journal / progress label
};

/// The functional sanity check every engine runs on every trace: the
/// netlist must produce the unmasked value the stimulus expects.
void checkDecode(const MaskedSbox& sbox,
                 const std::vector<std::uint8_t>& outputs,
                 const TraceStimulus& s, std::size_t i) {
  if (sbox.decode(outputs, s.fin) != s.expected) {
    throw std::logic_error("acquisition: decode mismatch at trace " +
                           std::to_string(i));
  }
}

/// Collects traces [begin, end) of `protocol`: the one engine-dispatch body
/// behind acquire() (the full schedule), acquireRange() (a checkpoint
/// group) and acquireKeyed(). Every engine runs the same per-trace
/// protocol — stimulus of the trace's *global* index, settle, run, decode
/// check — so the TraceSet is bit-identical across engines, and slicing is
/// invisible in the result bits.
TraceSet acquireSlice(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const Protocol& protocol,
                      std::size_t begin, std::size_t end,
                      SimEngine requested, TimeQuantization quantization,
                      std::uint32_t numThreads,
                      const obs::ProgressFn& progress,
                      obs::Profiler* profiler) {
  const std::size_t n = end - begin;
  const std::string style(sbox.name());
  const auto describe = [&](std::size_t j) {
    const std::size_t i = begin + j;
    return std::string(protocol.noun) + " trace " + std::to_string(i) +
           " (" + protocol.labelName + " " +
           std::to_string(static_cast<int>(protocol.stimulus(i).label)) +
           ", style " + style + ")";
  };
  const std::uint32_t threads = resolveWorkerThreads(numThreads, n);
  const SimEngine engine = resolveEngine(requested, sim, power, n);
  const TimeQuantization quant = resolveQuantization(requested, quantization);

  if (engine == SimEngine::Batch) {
    // Bit-parallel path: lane l of group g is trace begin + 64*g + l, and
    // each lane runs its trace's own stimulus, so the TraceSet is
    // bit-identical to the scalar engines' regardless of how traces fall
    // into groups. Under the quantized-grid opt-in (only ever reached with
    // a forced Batch engine) the stimuli are unchanged, so the quantized
    // result stays deterministic in seed, thread-count invariant and
    // slice-concatenation safe — just not bit-identical to the exact
    // engines.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    SimOptions bopts = sim.options();
    bopts.timeQuantization = quant;
    BatchSim bsim(design, bopts);
    bsim.attachMetrics(sim.metricsRegistry());
    bsim.attachProfiler(profiler);
    const auto describeGroup = [&](std::size_t g) {
      const std::size_t base = begin + g * BatchSim::kLanes;
      return std::string(protocol.noun) + " traces [" +
             std::to_string(base) + ", " +
             std::to_string(std::min<std::size_t>(base + BatchSim::kLanes,
                                                  end)) +
             ") (style " + style + ", batch engine)";
    };
    const auto body = [&](BatchSim& worker, std::size_t g, TraceSet& out) {
      const std::size_t base = begin + g * BatchSim::kLanes;
      const std::size_t lanes =
          std::min<std::size_t>(BatchSim::kLanes, end - base);
      const std::vector<TraceStimulus> group =
          runLaneGroup(worker, protocol.stimulus, base, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::uint32_t lane = static_cast<std::uint32_t>(l);
        checkDecode(sbox, worker.outputValues(lane), group[l], base + l);
        const double* trace = worker.laneTrace(lane);
        out.add(group[l].label,
                std::vector<double>(trace, trace + design.numSamples));
      }
    };
    return shardedBatchAcquire(bsim, power.options().numSamples, n,
                               numThreads, body, describeGroup, progress,
                               protocol.spanLabel);
  }

  if (engine == SimEngine::Compiled) {
    // Fast path: fused deposition, no Transition list materialized;
    // runFused(fin, s) == power.sample(run(fin), s) bit-for-bit.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    CompiledSim csim(design, sim.options());
    csim.attachMetrics(sim.metricsRegistry());
    csim.attachProfiler(profiler);
    const auto body = [&](CompiledSim& worker, std::size_t j, TraceSet& out) {
      const std::size_t i = begin + j;
      const TraceStimulus s = protocol.stimulus(i);
      worker.settle(s.init);
      const std::vector<double>& trace = worker.runFused(s.fin, s.noiseSeed);
      checkDecode(sbox, worker.outputValues(), s, i);
      out.add(s.label, trace);
    };
    return shardedAcquire(csim, power.options().numSamples, n, threads, body,
                          describe, progress, protocol.spanLabel);
  }

  // Reference path: workers clone `sim`, so attaching here propagates to
  // every worker. Only attach when requested — a null re-attach would
  // clobber an attachment the caller installed on the prototype.
  if (profiler != nullptr) sim.attachProfiler(profiler);
  const auto body = [&](EventSim& worker, std::size_t j, TraceSet& out) {
    const std::size_t i = begin + j;
    const TraceStimulus s = protocol.stimulus(i);
    worker.settle(s.init);
    const std::vector<Transition> transitions = worker.run(s.fin);
    checkDecode(sbox, worker.outputValues(), s, i);
    out.add(s.label, power.sample(transitions, s.noiseSeed));
  };
  return shardedAcquire(sim, power.options().numSamples, n, threads, body,
                        describe, progress, protocol.spanLabel);
}

/// Slice [begin, end) of the fixed-class protocol acquire() runs for `cfg`.
TraceSet acquireClassSlice(const MaskedSbox& sbox, EventSim& sim,
                           const PowerModel& power,
                           const AcquisitionConfig& cfg,
                           const std::vector<std::uint8_t>& schedule,
                           std::size_t begin, std::size_t end) {
  const Protocol protocol{[&](std::size_t i) {
                            return classStimulus(sbox, cfg.seed,
                                                 cfg.initialValue,
                                                 schedule[i], i);
                          },
                          "acquire", "class", "acquire"};
  return acquireSlice(sbox, sim, power, protocol, begin, end, cfg.engine,
                      cfg.timeQuantization, cfg.numThreads, cfg.progress,
                      cfg.profiler);
}

}  // namespace

TraceSet acquire(const MaskedSbox& sbox, EventSim& sim,
                 const PowerModel& power, const AcquisitionConfig& cfg) {
  if (cfg.adaptive) {
    return stats::adaptiveAcquire(sbox, sim, power, cfg).traces;
  }
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  return acquireClassSlice(sbox, sim, power, cfg, schedule, 0,
                           schedule.size());
}

TraceSet acquireRange(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::size_t begin, std::size_t end) {
  if (cfg.adaptive) {
    throw std::invalid_argument(
        "acquireRange: cfg.adaptive must be false (adaptive runs are "
        "sliced by batch, not by schedule index)");
  }
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  if (begin > end || end > schedule.size()) {
    throw std::invalid_argument(
        "acquireRange: invalid slice [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") of " + std::to_string(schedule.size()) +
        " traces");
  }
  if (begin == end) return TraceSet(power.options().numSamples);
  return acquireClassSlice(sbox, sim, power, cfg, schedule, begin, end);
}

TraceSet acquireKeyed(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, std::uint8_t key,
                      std::uint32_t numTraces, std::uint64_t seed,
                      std::uint32_t numThreads, SimEngine engine,
                      TimeQuantization quantization) {
  // The plaintext is the first draw of the trace's stream, then the fixed
  // protocol's draws with initial value 0 and final value plain ^ key.
  const Protocol protocol{[&](std::size_t i) {
                            Prng rng(deriveStreamSeed(seed, i));
                            TraceStimulus s;
                            s.label = rng.nibble();
                            const std::uint8_t x =
                                static_cast<std::uint8_t>(s.label ^ key);
                            s.init = sbox.encode(0, rng);
                            s.fin = sbox.encode(x, rng);
                            s.noiseSeed = rng.next() | 1ULL;
                            s.expected = kPresentSbox[x];
                            return s;
                          },
                          "keyed", "plaintext", "acquire-keyed"};
  return acquireSlice(sbox, sim, power, protocol, 0, numTraces, engine,
                      quantization, numThreads, obs::ProgressFn(), nullptr);
}

}  // namespace lpa
