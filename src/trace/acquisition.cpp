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

/// Streams traces [begin, end) of `protocol` to `sink` in index order: the
/// one engine-dispatch body behind acquire(), acquireRange() and
/// acquireKeyed(). Every engine runs the same per-trace protocol —
/// stimulus of the trace's *global* index, settle, run, decode check — so
/// the sequence is bit-identical across engines, and slicing is invisible
/// in the result bits.
void acquireSlice(const MaskedSbox& sbox, EventSim& sim,
                  const PowerModel& power, const Protocol& protocol,
                  std::size_t begin, std::size_t end, SimEngine requested,
                  TimeQuantization quantization, std::uint32_t numThreads,
                  const obs::ProgressFn& progress, obs::Profiler* profiler,
                  const TraceSink& sink) {
  const std::size_t n = end - begin;
  const std::uint32_t numSamples = power.options().numSamples;
  const std::string style(sbox.name());
  const SimEngine engine = resolveEngine(requested, sim, power, n);
  const TimeQuantization quant = resolveQuantization(requested, quantization);
  // Runs fn(), naming trace i in any failure.
  const auto onTrace = [&](std::size_t i, const auto& fn) {
    try {
      fn();
    } catch (...) {
      detail::rethrowAsWorkerError(std::current_exception(), i, [&] {
        return std::string(protocol.noun) + " trace " + std::to_string(i) +
               " (" + protocol.labelName + " " +
               std::to_string(static_cast<int>(protocol.stimulus(i).label)) +
               ", style " + style + ")";
      });
    }
  };

  // A work item is one lane group on the batch engine, and on the scalar
  // engines a block of consecutive traces sized to give each worker a few.
  const auto itemsOf = [](std::size_t traces, std::size_t per) {
    return (traces + per - 1) / per;
  };
  const bool batch = engine == SimEngine::Batch;
  const std::uint32_t threads = resolveWorkerThreads(
      numThreads, batch ? itemsOf(n, BatchSim::kLanes) : n);
  const std::size_t itemTraces =
      batch ? BatchSim::kLanes
            : std::clamp<std::size_t>(
                  itemsOf(n, detail::reorderWindow(threads)), 1,
                  BatchSim::kLanes);

  // Runs the pool on `proto` (worker 0) and clones of it. fill(worker,
  // first, count, labels, samples) simulates traces [first, first + count)
  // into one reorder slot — trace first + t's label at labels[t], its
  // samples at samples + t * numSamples — which is then handed to the sink.
  const auto stream = [&](auto& proto, const char* engineName,
                          const auto& fill) {
    obs::Span span(std::string(protocol.spanLabel) + " (" +
                   std::to_string(n) + " traces, " + std::to_string(threads) +
                   " threads, " + engineName + " engine)");
    obs::ProgressMeter meter(protocol.spanLabel, n, progress);
    obs::MetricsRegistry::global().counter("acquire.traces_total").add(n);
    obs::EventJournal::global().info(
        "acquire-start", {{"label", protocol.spanLabel},
                          {"traces", std::to_string(n)},
                          {"threads", std::to_string(threads)},
                          {"engine", engineName}});
    JournalAcquireScope journalScope{protocol.spanLabel};

    std::vector<std::remove_reference_t<decltype(proto)>> clones;
    clones.reserve(threads - 1);
    while (clones.size() + 1 < threads) clones.push_back(proto.clone());
    const std::size_t window = detail::reorderWindow(threads);
    std::vector<std::uint8_t> labels(window * itemTraces);
    std::vector<double> samples(labels.size() * numSamples);
    const auto firstOf = [&](std::size_t item) {
      return begin + item * itemTraces;
    };
    const auto countOf = [&](std::size_t item) {
      return std::min(itemTraces, end - firstOf(item));
    };
    detail::orderedFor(
        itemsOf(n, itemTraces), threads, window,
        [&](std::uint32_t w, std::size_t item) {
          const std::size_t slot = item % window * itemTraces;
          fill(w == 0 ? proto : clones[w - 1], firstOf(item), countOf(item),
               &labels[slot], &samples[slot * numSamples]);
        },
        [&](std::size_t item) {
          const std::size_t slot = item % window * itemTraces;
          for (std::size_t t = 0; t < countOf(item); ++t) {
            onTrace(firstOf(item) + t, [&] {
              sink(labels[slot + t], &samples[(slot + t) * numSamples]);
            });
            meter.step();
          }
        },
        [&](std::size_t item) {
          return std::string(protocol.noun) + " traces [" +
                 std::to_string(firstOf(item)) + ", " +
                 std::to_string(firstOf(item) + countOf(item)) +
                 ") (style " + style + ", " + engineName + " engine)";
        },
        &meter, protocol.spanLabel);
    meter.finish();
  };

  if (batch) {
    // Bit-parallel path: lane l of a group is trace first + l and runs its
    // trace's own stimulus, so the traces are bit-identical to the scalar
    // engines' however traces fall into groups. Under the quantized-grid
    // opt-in (only ever reached with a forced Batch engine) the stimuli are
    // unchanged, so the quantized result stays deterministic in seed,
    // thread-count invariant and slice-concatenation safe — just not
    // bit-identical to the exact engines. A group that fails as a whole
    // (a lane tripping the watchdog) is named by its trace range.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    SimOptions bopts = sim.options();
    bopts.timeQuantization = quant;
    BatchSim bsim(design, bopts);
    bsim.attachMetrics(sim.metricsRegistry());
    bsim.attachProfiler(profiler);
    stream(bsim, "batch",
           [&](BatchSim& worker, std::size_t first, std::size_t lanes,
               std::uint8_t* labels, double* samples) {
             const std::vector<TraceStimulus> group =
                 runLaneGroup(worker, protocol.stimulus, first, lanes);
             for (std::uint32_t l = 0; l < lanes; ++l) {
               onTrace(first + l, [&] {
                 checkDecode(sbox, worker.outputValues(l), group[l],
                             first + l);
               });
               labels[l] = group[l].label;
               std::copy_n(worker.laneTrace(l), numSamples,
                           samples + l * numSamples);
             }
           });
    return;
  }

  // Scalar engines: simulate(worker, s, i) runs stimulus s, checks the
  // decode and returns the trace's samples.
  const auto scalarFill = [&](const auto& simulate) {
    return [&, simulate](auto& worker, std::size_t first, std::size_t count,
                         std::uint8_t* labels, double* samples) {
      for (std::size_t t = 0; t < count; ++t) {
        onTrace(first + t, [&] {
          const TraceStimulus s = protocol.stimulus(first + t);
          worker.settle(s.init);
          const auto& trace = simulate(worker, s, first + t);
          labels[t] = s.label;
          std::copy_n(trace.data(), numSamples, samples + t * numSamples);
        });
      }
    };
  };

  if (engine == SimEngine::Compiled) {
    // Fast path: fused deposition, no Transition list materialized;
    // runFused(fin, s) == power.sample(run(fin), s) bit-for-bit.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    CompiledSim csim(design, sim.options());
    csim.attachMetrics(sim.metricsRegistry());
    csim.attachProfiler(profiler);
    stream(csim, "compiled",
           scalarFill([&](CompiledSim& worker, const TraceStimulus& s,
                          std::size_t i) -> const std::vector<double>& {
             const std::vector<double>& trace =
                 worker.runFused(s.fin, s.noiseSeed);
             checkDecode(sbox, worker.outputValues(), s, i);
             return trace;
           }));
    return;
  }

  // Reference path: workers clone `sim`, so attaching here propagates to
  // every worker. Only attach when requested — a null re-attach would
  // clobber an attachment the caller installed on the prototype.
  if (profiler != nullptr) sim.attachProfiler(profiler);
  stream(sim, "reference",
         scalarFill([&](EventSim& worker, const TraceStimulus& s,
                        std::size_t i) {
           const std::vector<Transition> transitions = worker.run(s.fin);
           checkDecode(sbox, worker.outputValues(), s, i);
           return power.sample(transitions, s.noiseSeed);
         }));
}

/// A TraceSet of `n` reserved traces, filled by run(sink).
template <typename Run>
TraceSet collect(const PowerModel& power, std::size_t n, const Run& run) {
  TraceSet traces(power.options().numSamples);
  traces.reserve(n);
  run([&traces](std::uint8_t label, const double* samples) {
    traces.add(label, samples);
  });
  return traces;
}

}  // namespace

void acquireRange(const MaskedSbox& sbox, EventSim& sim,
                  const PowerModel& power, const AcquisitionConfig& cfg,
                  std::size_t begin, std::size_t end, const TraceSink& sink) {
  if (cfg.adaptive) {
    throw std::invalid_argument(
        "acquisition: cfg.adaptive must be false (adaptive runs go batch by "
        "batch through jobs::resilientAcquire)");
  }
  const std::size_t total = 16u * cfg.tracesPerClass;
  if (begin > end || end > total) {
    throw std::invalid_argument(
        "acquireRange: invalid slice [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") of " + std::to_string(total) + " traces");
  }
  const std::vector<std::uint8_t> schedule =
      balancedClassSchedule(cfg.tracesPerClass, cfg.seed);
  const Protocol protocol{[&](std::size_t i) {
                            return classStimulus(sbox, cfg.seed,
                                                 cfg.initialValue,
                                                 schedule[i], i);
                          },
                          "acquire", "class", "acquire"};
  acquireSlice(sbox, sim, power, protocol, begin, end, cfg.engine,
               cfg.timeQuantization, cfg.numThreads, cfg.progress,
               cfg.profiler, sink);
}

void acquire(const MaskedSbox& sbox, EventSim& sim, const PowerModel& power,
             const AcquisitionConfig& cfg, const TraceSink& sink) {
  acquireRange(sbox, sim, power, cfg, 0, 16u * cfg.tracesPerClass, sink);
}

TraceSet acquire(const MaskedSbox& sbox, EventSim& sim,
                 const PowerModel& power, const AcquisitionConfig& cfg) {
  return collect(power, 16u * cfg.tracesPerClass, [&](const TraceSink& s) {
    acquire(sbox, sim, power, cfg, s);
  });
}

TraceSet acquireRange(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::size_t begin, std::size_t end) {
  return collect(power, end > begin ? end - begin : 0,
                 [&](const TraceSink& s) {
                   acquireRange(sbox, sim, power, cfg, begin, end, s);
                 });
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
  return collect(power, numTraces, [&](const TraceSink& s) {
    acquireSlice(sbox, sim, power, protocol, 0, numTraces, engine,
                 quantization, numThreads, obs::ProgressFn(), nullptr, s);
  });
}

}  // namespace lpa
