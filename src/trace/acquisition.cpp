#include "trace/acquisition.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "crypto/present.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/batch_sim.h"
#include "trace/sharded_pool.h"

namespace lpa {

namespace {

/// Stream index of the schedule shuffle; far outside any trace index.
constexpr std::uint64_t kScheduleStream = ~0ULL;

/// Whether the batch engine serves a call: under Auto, on every design the
/// batch engine can lower — an index-ordered netlist (every fault overlay
/// keeps it but a forward bridge), a power model built for it and fewer
/// than 2^24 gates — at any call size. Every other design, and a call that
/// asks for Reference, runs on the reference EventSim, so Auto never
/// throws.
bool resolveBatch(SimEngine requested, const EventSim& sim,
                  const PowerModel& power) {
  return requested == SimEngine::Auto && sim.netlist().isIndexOrdered() &&
         power.numGates() == sim.netlist().numGates() &&
         sim.netlist().numGates() < (std::size_t(1) << 24);
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
                            std::uint8_t cls, std::size_t i) {
  // All randomness of trace i — masks, gadget bits, noise seed — comes
  // from this stream and hence depends only on (seed, i).
  Prng rng(deriveStreamSeed(seed, i));
  TraceStimulus s;
  s.init = sbox.encode(kInitialValue, rng);
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

/// Hands each batch worker's per-net profile tallies to the profiler once,
/// when the call ends, however it ends (BatchSim::flushProfile); the
/// reference engine flushes its own per run.
template <typename Engine>
struct FlushProfilesAtExit {
  Engine& proto;
  std::vector<Engine>& clones;
  ~FlushProfilesAtExit() {
    if constexpr (std::is_same_v<Engine, BatchSim>) {
      proto.flushProfile();
      for (Engine& clone : clones) clone.flushProfile();
    }
  }
};

/// One acquisition protocol: how trace i is stimulated, and how its traces
/// are named in failures, spans, the journal and progress.
struct Protocol {
  StimulusFn stimulus;
  const char* noun;       ///< "<noun> trace i" in failure descriptions
  const char* labelName;  ///< what the trace label is ("class", ...)
  const char* spanLabel;  ///< span / journal / progress label
};

/// acquireSlice's classify policy: outcomes against `faultFree`, tallied
/// into `result`.
struct Classify {
  const CompiledDesign& faultFree;
  ClassifiedAcquisition& result;
};

/// Plan::row of a triple only one trace uses (its samples wait in its
/// window's half of a double buffer, not in the store), and an empty slot
/// of makePlan's table.
constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// The plan of one acquisition call over traces [begin, begin + n): every
/// trace's stimulus triple (init, fin, expected), label and noise seed.
/// The distinct triples are numbered in first-occurrence order, so triple
/// d first occurs at slice-local trace first[d], first is increasing, and
/// first[distinct()] = n. A trace's samples are a function of its triple
/// alone, plus its own noise.
struct Plan {
  std::size_t width = 0;                 ///< values per encoding
  std::vector<std::uint8_t> triples;     ///< per triple: init, fin, expected
  std::vector<std::uint32_t> first;      ///< per triple, then n
  std::vector<std::uint32_t> row;        ///< per triple: store row or kNone
  std::size_t rows = 0;                  ///< triples used by several traces
  std::vector<std::uint32_t> id;         ///< per trace: its triple
  std::vector<std::uint8_t> label;       ///< per trace
  std::vector<std::uint64_t> noiseSeed;  ///< per trace, if noise is on

  std::size_t distinct() const { return first.size() - 1; }

  /// Triple d's init, fin and expected values, in that order.
  const std::uint8_t* key(std::size_t d) const {
    return &triples[d * (2 * width + 1)];
  }

  /// Triple d as a stimulus with noise seed 0.
  TraceStimulus stimulus(std::size_t d) const {
    const std::uint8_t* key = this->key(d);
    TraceStimulus s;
    s.init.assign(key, key + width);
    s.fin.assign(key + width, key + 2 * width);
    s.expected = key[2 * width];
    return s;
  }
};

/// Hash of a `stride`-byte key.
std::size_t hashKey(const std::uint8_t* key, std::size_t stride) {
  std::uint64_t h = 0;
  for (std::size_t k = 0; k < stride; k += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, key + k, std::min<std::size_t>(8, stride - k));
    h = mix64(h ^ word);
  }
  return static_cast<std::size_t>(h);
}

/// Derives every stimulus of traces [begin, end) and numbers the distinct
/// triples. Workers derive blocks of stimuli and their keys in parallel;
/// delivery numbers each block's keys in trace order through an
/// open-addressing table kept at most half full. A stimulus that cannot be
/// derived, or whose encodings do not match the netlist's `width` inputs,
/// fails the call before any trace is simulated. Noise seeds are kept only
/// for a `noisy` call.
Plan makePlan(const Protocol& protocol, std::size_t begin, std::size_t end,
              std::size_t width, bool noisy, std::uint32_t numThreads,
              const std::string& style) {
  const std::size_t n = end - begin;
  if (n >= kNone) {
    throw std::invalid_argument(
        "acquisition: at most 2^32 - 2 traces per call");
  }
  Plan plan;
  plan.width = width;
  plan.id.resize(n);
  plan.label.resize(n);
  if (noisy) plan.noiseSeed.resize(n);
  const std::size_t stride = 2 * width + 1;
  std::vector<std::uint32_t> table(16, kNone);
  // The slot of `key` (hash h) in `table`: its triple's, or the empty one.
  const auto slotOf = [&](const std::uint8_t* key, std::size_t h) {
    std::size_t s = h & (table.size() - 1);
    while (table[s] != kNone &&
           std::memcmp(&plan.triples[table[s] * stride], key, stride) != 0) {
      s = (s + 1) & (table.size() - 1);
    }
    return s;
  };

  constexpr std::size_t kBlock = 256;  // traces per derivation item
  const std::size_t blocks = (n + kBlock - 1) / kBlock;
  const std::uint32_t threads = resolveWorkerThreads(numThreads, blocks);
  const std::size_t window = detail::reorderWindow(threads);
  // Per slot: each of its block's keys and their hashes.
  std::vector<std::uint8_t> keys(window * kBlock * stride);
  std::vector<std::size_t> hashes(window * kBlock);
  const auto blockEnd = [&](std::size_t b) {
    return std::min(n, (b + 1) * kBlock);
  };
  detail::orderedFor(
      blocks, threads, window,
      [&](std::uint32_t, std::size_t b) {
        for (std::size_t t = b * kBlock; t < blockEnd(b); ++t) {
          TraceStimulus s;
          try {
            s = protocol.stimulus(begin + t);
            if (s.init.size() != width || s.fin.size() != width) {
              throw std::invalid_argument(
                  "acquisition: a stimulus encoding does not match the "
                  "netlist's " +
                  std::to_string(width) + " inputs");
            }
          } catch (...) {
            detail::rethrowAsWorkerError(
                std::current_exception(), begin + t, [&] {
                  return std::string(protocol.noun) + " trace " +
                         std::to_string(begin + t) + " (style " + style +
                         ")";
                });
          }
          const std::size_t k = b % window * kBlock + t % kBlock;
          std::uint8_t* key = &keys[k * stride];
          std::copy(s.init.begin(), s.init.end(), key);
          std::copy(s.fin.begin(), s.fin.end(), key + width);
          key[2 * width] = s.expected;
          hashes[k] = hashKey(key, stride);
          plan.label[t] = s.label;
          if (noisy) plan.noiseSeed[t] = s.noiseSeed;
        }
      },
      [&](std::size_t b) {
        for (std::size_t t = b * kBlock; t < blockEnd(b); ++t) {
          const std::size_t k = b % window * kBlock + t % kBlock;
          const std::uint8_t* key = &keys[k * stride];
          std::size_t slot = slotOf(key, hashes[k]);
          if (table[slot] == kNone) {
            if (2 * (plan.first.size() + 1) > table.size()) {
              table.assign(2 * table.size(), kNone);
              for (std::uint32_t d = 0; d < plan.first.size(); ++d) {
                const std::uint8_t* old = &plan.triples[d * stride];
                table[slotOf(old, hashKey(old, stride))] = d;
              }
              slot = slotOf(key, hashes[k]);
            }
            table[slot] = static_cast<std::uint32_t>(plan.first.size());
            plan.triples.insert(plan.triples.end(), key, key + stride);
            plan.first.push_back(static_cast<std::uint32_t>(t));
            plan.row.push_back(kNone);
          } else {
            plan.row[table[slot]] = 0;  // used again: numbered below
          }
          plan.id[t] = table[slot];
        }
      },
      [&](std::size_t b) {
        return std::string(protocol.noun) + " traces [" +
               std::to_string(begin + b * kBlock) + ", " +
               std::to_string(begin + blockEnd(b)) + ") (style " + style +
               ")";
      });
  plan.first.push_back(static_cast<std::uint32_t>(n));
  for (std::uint32_t& r : plan.row) {
    if (r != kNone) r = static_cast<std::uint32_t>(plan.rows++);
  }
  return plan;
}

/// Streams traces [begin, end) of `protocol` to `sink` in index order, on
/// cfg's engine, threads and progress sink, with `sim`'s metrics registry
/// and profiler: the one engine-dispatch body behind every acquisition
/// entry point, under the strict policy, or under the classify policy
/// when `classify` is set. A plan pass derives every trace's stimulus; the
/// pool then simulates each distinct (init, fin, expected) triple once,
/// without noise, and delivery hands trace i its triple's samples plus its
/// own noise — the last step either engine would have run — so the
/// sequence is bit-identical across engines and to simulating every trace,
/// and slicing is invisible in the result bits.
void acquireSlice(const MaskedSbox& sbox, EventSim& sim,
                  const PowerModel& power, const Protocol& protocol,
                  const AcquisitionConfig& cfg, std::size_t begin,
                  std::size_t end, const TraceSink& sink,
                  Classify* classify = nullptr) {
  if (cfg.adaptive) {
    throw std::invalid_argument(
        "acquisition: cfg.adaptive must be false (adaptive runs stream "
        "acquireBatches through jobs::resilientAcquire)");
  }
  const std::size_t n = end - begin;
  const std::uint32_t numSamples = power.options().numSamples;
  const double sigma = power.options().noiseSigma;
  const std::string style(sbox.name());
  const std::size_t width = sim.netlist().inputs().size();
  const Plan plan = makePlan(protocol, begin, end, width, sigma > 0.0,
                             cfg.numThreads, style);
  const std::size_t m = plan.distinct();
  const bool batch = resolveBatch(cfg.engine, sim, power);
  // Runs fn(), naming slice-local trace t in any failure.
  const auto onTrace = [&](std::size_t t, const auto& fn) {
    try {
      fn();
    } catch (...) {
      detail::rethrowAsWorkerError(std::current_exception(), begin + t, [&] {
        return std::string(protocol.noun) + " trace " +
               std::to_string(begin + t) + " (" + protocol.labelName + " " +
               std::to_string(static_cast<int>(plan.label[t])) +
               ", style " + style + ")";
      });
    }
  };

  // Windows and work items. On the batch engine items are lane groups of
  // ceil(m / workers) triples, at most 64, so a call of fewer than 64
  // triples per worker still gives every worker one; on the reference
  // engine they are blocks sized to give each worker a few. The triples,
  // in first-occurrence order, are cut into windows of whole items
  // holding at most `windowRows` single-use triples each (a triple used
  // again keeps a store row for the whole call, so it does not count); only
  // the last window may end in a partial item. On the batch engine a window
  // of at least `windowRows` triples — every window but the last — runs its
  // lanes sorted by final encoding; a shorter one keeps first-occurrence
  // order, because with few groups per worker the costliest sorted group
  // would set the wall time. Item k runs the triples at positions [cut[k],
  // cut[k + 1]) of `order`.
  const auto itemsOf = [](std::size_t count, std::size_t per) {
    return (count + per - 1) / per;
  };
  const std::uint32_t threads = resolveWorkerThreads(cfg.numThreads, m);
  const std::size_t windowRows =
      detail::reorderWindow(threads) * BatchSim::kLanes;
  const std::size_t itemTriples = std::clamp<std::size_t>(
      itemsOf(m, batch ? threads : detail::reorderWindow(threads)), 1,
      BatchSim::kLanes);
  std::vector<std::uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::size_t> cut;          // per item, then m
  std::vector<std::size_t> windowFirst;  // per window: first item; then items
  std::vector<std::size_t> windowOf;     // per item
  std::vector<char> sorted;              // per window
  // Noiseless samples of triple d: row rowOf[d] of `rows` — its store row,
  // or, single-use, a row of its window's half of a double buffer.
  std::vector<std::uint32_t> rowOf(m);
  std::size_t singleUse = 0;
  for (std::size_t a = 0, b = 0; a < m; a = b) {
    for (std::size_t fresh = 0; b < m && fresh < windowRows; ++b) {
      if (plan.row[b] == kNone) ++fresh;
    }
    if (b < m) b = a + (b - a) / itemTriples * itemTriples;
    for (std::size_t d = a; d < b; ++d) {
      rowOf[d] = plan.row[d] != kNone
                     ? plan.row[d]
                     : static_cast<std::uint32_t>(
                           plan.rows + singleUse++ % (2 * windowRows));
    }
    sorted.push_back(batch && b - a >= windowRows);
    if (sorted.back()) {
      sortByFinalEncoding(&order[a], b - a, width, [&](std::uint32_t d) {
        const std::uint8_t* key = plan.key(d);
        return std::pair{key, key + width};
      });
    }
    windowFirst.push_back(cut.size());
    for (std::size_t p = a; p < b; p += itemTriples) {
      cut.push_back(p);
      windowOf.push_back(sorted.size() - 1);
    }
  }
  const std::size_t items = cut.size();
  const std::size_t windows = sorted.size();
  cut.push_back(m);
  windowFirst.push_back(items);
  std::vector<double> rows(
      (plan.rows + std::min(singleUse, 2 * windowRows)) * numSamples);
  const auto samplesOf = [&](std::size_t d) {
    return &rows[std::size_t(rowOf[d]) * numSamples];
  };
  // Workers may run items of the two oldest undelivered windows, so a
  // window's half of the buffer is free again once it is delivered, and
  // `slots` per-item slots hold every item in flight.
  const auto horizon = [&](std::size_t d) {
    return windowFirst[std::min(windowOf[d] + 2, windows)];
  };
  std::size_t slots = 1;
  for (std::size_t w = 0; w < windows; ++w) {
    slots = std::max(slots, windowFirst[std::min(w + 2, windows)] -
                                windowFirst[w]);
  }
  // The lowest first trace of the triples at positions [a, a + count).
  const auto lowestFirst = [&](std::size_t a, std::size_t count) {
    std::size_t t = n;
    for (std::size_t p = a; p < a + count; ++p) {
      t = std::min<std::size_t>(t, plan.first[order[p]]);
    }
    return t;
  };
  const auto describeTriples = [&](std::size_t a, std::size_t count,
                                   const char* engineName) {
    return std::string(protocol.noun) + " traces of " +
           std::to_string(count) + " stimuli from trace " +
           std::to_string(begin + lowestFirst(a, count)) + " (style " +
           style + ", " + engineName + " engine)";
  };

  // Classify policy: per triple, its outcome and, if its run diverged, the
  // events the run reached.
  std::vector<FaultDetection> outcome(classify ? m : 0);
  std::vector<std::uint64_t> tripEvents(classify ? m : 0);
  // Both engines' check of triple d's outputs `out` (stimulus `s`). Strict:
  // the netlist must produce the unmasked value it expects. Classify: the
  // outcome against the fault-free outputs `ref`.
  const auto check = [&](std::uint32_t d, const std::vector<std::uint8_t>& out,
                         const TraceStimulus& s,
                         const std::vector<std::uint8_t>& ref) {
    if (!classify) {
      if (sbox.decode(out, s.fin) == s.expected) return;
      throw std::logic_error("acquisition: decode mismatch at trace " +
                             std::to_string(begin + plan.first[d]));
    }
    outcome[d] = out == ref ? FaultDetection::MaskedOut
                            : FaultDetection::DetectedByDecode;
    try {
      if (out != ref && sbox.decode(out, s.fin) == sbox.decode(ref, s.fin)) {
        outcome[d] = FaultDetection::SilentCorruption;
      }
    } catch (const std::exception&) {
      // decode refused the corrupted shares: detected
    }
  };
  // Fault-free outputs of the triples at positions [a, a + count), for
  // check(); empty under the strict policy.
  const auto faultFreeOutputs = [&](std::size_t a, std::size_t count) {
    std::vector<std::vector<std::uint8_t>> fins(count);
    if (!classify) return fins;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint8_t* key = plan.key(order[a + k]);
      fins[k].assign(key + width, key + 2 * width);
    }
    return BatchSim::evaluateOutputs(classify->faultFree, fins);
  };
  // Counts one trace of triple d; false withholds it from the sink.
  const auto tally = [&](std::uint32_t d) {
    ClassifiedAcquisition& r = classify->result;
    const FaultDetection o = outcome[d];
    ++(o == FaultDetection::MaskedOut          ? r.counts.maskedOut
       : o == FaultDetection::DetectedByDecode ? r.counts.detectedByDecode
       : o == FaultDetection::SilentCorruption ? r.counts.silentCorruption
                                               : r.counts.diverged);
    if (o != FaultDetection::Diverged) return true;
    r.maxWatchdogEvents = std::max(r.maxWatchdogEvents, tripEvents[d]);
    return false;
  };

  // Runs the pool on `proto` (worker 0) and clones of it. fill(w, worker,
  // a, count) simulates, on worker w, the triples at positions [a, a +
  // count) into samplesOf(d); a failure throws the WorkerError of the
  // lowest trace it loses. Delivery hands over chunk k — every trace before
  // the first trace of triple cut[k + 1] — once chunk k's triples are done:
  // with item k on an unsorted window, with the window's last item on a
  // sorted one. A recorded failure among the delivered items stops delivery
  // at its trace.
  const auto stream = [&](auto& proto, const char* engineName,
                          const auto& fill) {
    obs::Span span(std::string(protocol.spanLabel) + " (" +
                   std::to_string(n) + " traces, " + std::to_string(m) +
                   " distinct, " + std::to_string(threads) + " threads, " +
                   engineName + " engine)");
    obs::ProgressMeter meter(protocol.spanLabel, n, cfg.progress);
    obs::MetricsRegistry::global().counter("acquire.traces_total").add(n);
    obs::MetricsRegistry::global().counter("acquire.distinct_total").add(m);
    obs::EventJournal::global().info(
        "acquire-start", {{"label", protocol.spanLabel},
                          {"traces", std::to_string(n)},
                          {"distinct", std::to_string(m)},
                          {"threads", std::to_string(threads)},
                          {"engine", engineName}});
    JournalAcquireScope journalScope{protocol.spanLabel};

    using Engine = std::remove_reference_t<decltype(proto)>;
    std::vector<Engine> clones;
    clones.reserve(threads - 1);
    while (clones.size() + 1 < threads) clones.push_back(proto.clone());
    const FlushProfilesAtExit<Engine> flushProfiles{proto, clones};
    // Per slot: the failure of its item, if any, and the slice-local trace
    // it lands at (n = none).
    std::vector<std::exception_ptr> failure(slots);
    std::vector<std::size_t> failAt(slots, n);
    std::vector<double> noisy(numSamples);
    detail::orderedForHorizon(
        items, threads, slots, horizon,
        [&](std::uint32_t w, std::size_t item) {
          const std::size_t slot = item % slots;
          failure[slot] = nullptr;
          failAt[slot] = n;
          try {
            fill(w, w == 0 ? proto : clones[w - 1], cut[item],
                 cut[item + 1] - cut[item]);
          } catch (const WorkerError& e) {
            failure[slot] = std::current_exception();
            failAt[slot] = e.index() - begin;
          }
        },
        [&](std::size_t item) {
          const std::size_t w = windowOf[item];
          if (sorted[w] && item + 1 != windowFirst[w + 1]) return;
          const std::size_t from = sorted[w] ? windowFirst[w] : item;
          std::size_t stop = n;
          std::exception_ptr error;
          for (std::size_t k = from; k <= item; ++k) {
            if (failAt[k % slots] < stop) {
              stop = failAt[k % slots];
              error = failure[k % slots];
            }
          }
          for (std::size_t k = from; k <= item; ++k) {
            if (meter.abortRequested()) return;  // the pool throws
            const std::size_t last =
                std::min<std::size_t>(plan.first[cut[k + 1]], stop);
            for (std::size_t t = plan.first[cut[k]]; t < last; ++t) {
              if (classify && !tally(plan.id[t])) {
                meter.step();
                continue;
              }
              const double* samples = samplesOf(plan.id[t]);
              if (sigma > 0.0) {
                std::copy_n(samples, numSamples, noisy.data());
                power_detail::addGaussianNoise(noisy.data(), numSamples,
                                               sigma, plan.noiseSeed[t]);
                samples = noisy.data();
              }
              onTrace(t, [&] { sink(plan.label[t], samples); });
              meter.step();
            }
          }
          if (error) std::rethrow_exception(error);
        },
        [&](std::size_t item) {
          return describeTriples(cut[item], cut[item + 1] - cut[item],
                                 engineName);
        },
        &meter, protocol.spanLabel);
    meter.finish();
  };

  // Runs the triples at positions [a, a + count) one by one on `worker`,
  // the reference engine: settle + run without noise, the policy's check of
  // the outputs, and the power model's samples of the recorded transitions.
  // Under the classify policy a watchdog trip is the triple's outcome.
  const auto runReference = [&](EventSim& worker, std::size_t a,
                                std::size_t count) {
    const auto ref = faultFreeOutputs(a, count);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t d = order[a + k];
      onTrace(plan.first[d], [&] {
        const TraceStimulus s = plan.stimulus(d);
        std::vector<Transition> transitions;
        try {
          worker.settle(s.init);
          transitions = worker.run(s.fin);
        } catch (const SimDiverged& e) {
          if (!classify) throw;
          outcome[d] = FaultDetection::Diverged;
          tripEvents[d] = e.eventsProcessed();
          return;
        }
        check(d, worker.outputValues(), s, ref[k]);
        const std::vector<double> trace = power.sample(transitions, 0);
        std::copy_n(trace.data(), numSamples, samplesOf(d));
      });
    }
  };

  if (batch) {
    // Bit-parallel path: each lane runs one triple's stimulus, and no lane
    // depends on the lanes that share its group, so the traces are
    // bit-identical to the reference engine's however triples fall into
    // groups. Under the strict policy a group that fails as a whole (a
    // lane tripping the watchdog) loses the traces of all its triples and
    // is named by the lowest of their first traces, and a decode mismatch
    // by the lowest first trace among the failing lanes. Under the
    // classify policy a tripping group re-runs on the worker's reference
    // clone of `sim`, made on its first trip.
    const CompiledDesign design(sim.netlist(), sim.delayModel(), power);
    BatchSim bsim(design, sim.options());
    bsim.attachMetrics(sim.metricsRegistry());
    bsim.attachProfiler(sim.profiler());
    const StimulusFn laneStimulus = [&](std::size_t p) {
      return plan.stimulus(order[p]);
    };
    std::vector<std::optional<EventSim>> fallback(classify ? threads : 0);
    stream(bsim, "batch",
           [&](std::uint32_t w, BatchSim& worker, std::size_t a,
               std::size_t lanes) {
             // Every item but the last holds itemTriples triples, so this
             // is the item's index: profiling samples the same groups
             // whichever worker runs them.
             if (sim.profiler()) worker.setRunIndex(a / itemTriples);
             const auto groupFailed = [&] {
               detail::rethrowAsWorkerError(
                   std::current_exception(), begin + lowestFirst(a, lanes),
                   [&] { return describeTriples(a, lanes, "batch"); });
             };
             std::vector<TraceStimulus> group;
             try {
               group = runLaneGroup(worker, laneStimulus, a, lanes);
             } catch (const SimDiverged&) {
               if (!classify) groupFailed();
             } catch (...) {
               groupFailed();
             }
             if (group.empty()) {  // a lane tripped; classify policy
               if (!fallback[w]) fallback[w].emplace(sim.clone());
               runReference(*fallback[w], a, lanes);
               return;
             }
             const auto ref = faultFreeOutputs(a, lanes);
             std::size_t failAt = n;
             std::exception_ptr failure;
             for (std::uint32_t l = 0; l < lanes; ++l) {
               const std::uint32_t d = order[a + l];
               std::copy_n(worker.laneTrace(l), numSamples, samplesOf(d));
               try {
                 onTrace(plan.first[d], [&] {
                   check(d, worker.outputValues(l), group[l], ref[l]);
                 });
               } catch (const WorkerError&) {
                 if (plan.first[d] < failAt) {
                   failAt = plan.first[d];
                   failure = std::current_exception();
                 }
               }
             }
             if (failure) std::rethrow_exception(failure);
           });
    return;
  }

  // Reference path: triples are never sorted, so triple d is at position
  // d. Workers are `sim` and its clones, with its attachments.
  stream(sim, "reference",
         [&](std::uint32_t, EventSim& worker, std::size_t a,
             std::size_t count) { runReference(worker, a, count); });
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

/// acquire()'s fixed-class protocol for `cfg`, named `noun` and `label`.
Protocol classProtocol(const MaskedSbox& sbox, const AcquisitionConfig& cfg,
                       const char* noun, const char* label) {
  return {[&sbox, seed = cfg.seed,
           schedule = balancedClassSchedule(cfg.tracesPerClass, cfg.seed)](
              std::size_t i) {
            return classStimulus(sbox, seed, schedule[i], i);
          },
          noun, "class", label};
}

}  // namespace

void acquireRange(const MaskedSbox& sbox, EventSim& sim,
                  const PowerModel& power, const AcquisitionConfig& cfg,
                  std::size_t begin, std::size_t end, const TraceSink& sink) {
  const std::size_t total = 16u * cfg.tracesPerClass;
  if (begin > end || end > total) {
    throw std::invalid_argument(
        "acquireRange: invalid slice [" + std::to_string(begin) + ", " +
        std::to_string(end) + ") of " + std::to_string(total) + " traces");
  }
  acquireSlice(sbox, sim, power,
               classProtocol(sbox, cfg, "acquire", "acquire"), cfg, begin,
               end, sink);
}

std::uint64_t batchMajorTraces(const AcquisitionConfig& cfg) {
  const std::uint64_t total =
      cfg.maxTraces != 0 ? cfg.maxTraces : 16ULL * cfg.tracesPerClass;
  if (cfg.batchSize == 0 || cfg.batchSize % 16 != 0 || total == 0 ||
      total % 16 != 0) {
    throw std::invalid_argument(
        "acquisition: batchSize and maxTraces must be positive multiples of "
        "16");
  }
  return total;
}

void acquireBatches(const MaskedSbox& sbox, EventSim& sim,
                    const PowerModel& power, const AcquisitionConfig& cfg,
                    std::size_t begin, std::size_t end, const TraceSink& sink) {
  const std::uint64_t total = batchMajorTraces(cfg);
  if (begin > end || end > total) {
    throw std::invalid_argument("acquireBatches: invalid slice");
  }
  // The stimuli of every batch the slice reaches, each from `call` set to
  // the batch's seed and size (acquireSlice reads neither).
  const std::size_t size = cfg.batchSize;
  AcquisitionConfig call = cfg;
  call.adaptive = false;
  std::vector<StimulusFn> batches;
  for (std::size_t g = begin / size; g * size < end; ++g) {
    call.seed = deriveStreamSeed(
        deriveStreamSeed(cfg.seed, kAdaptiveBatchStream), g);
    call.tracesPerClass = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(size, total - g * size) / 16);
    batches.push_back(classProtocol(sbox, call, "", "").stimulus);
  }
  acquireSlice(sbox, sim, power,
               {[&](std::size_t i) {
                  return batches[i / size - begin / size](i % size);
                },
                "adaptive", "class", "acquire-batches"},
               call, begin, end, sink);
}

TraceSet acquire(const MaskedSbox& sbox, EventSim& sim,
                 const PowerModel& power, const AcquisitionConfig& cfg) {
  return acquireRange(sbox, sim, power, cfg, 0, 16u * cfg.tracesPerClass);
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
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::uint8_t key, std::uint32_t numTraces) {
  // The plaintext is the first draw of the trace's stream, then the fixed
  // protocol's draws with final value plain ^ key.
  const Protocol protocol{[&](std::size_t i) {
                            Prng rng(deriveStreamSeed(cfg.seed, i));
                            TraceStimulus s;
                            s.label = rng.nibble();
                            const std::uint8_t x =
                                static_cast<std::uint8_t>(s.label ^ key);
                            s.init = sbox.encode(kInitialValue, rng);
                            s.fin = sbox.encode(x, rng);
                            s.noiseSeed = rng.next() | 1ULL;
                            s.expected = kPresentSbox[x];
                            return s;
                          },
                          "keyed", "plaintext", "acquire-keyed"};
  return collect(power, numTraces, [&](const TraceSink& s) {
    acquireSlice(sbox, sim, power, protocol, cfg, 0, numTraces, s);
  });
}

ClassifiedAcquisition acquireClassified(const MaskedSbox& sbox,
                                        const CompiledDesign& faultFree,
                                        EventSim& sim, const PowerModel& power,
                                        const AcquisitionConfig& cfg,
                                        const TraceSink& sink) {
  ClassifiedAcquisition result;
  Classify classify{faultFree, result};
  acquireSlice(sbox, sim, power,
               classProtocol(sbox, cfg, "classified", "acquire-classified"),
               cfg, 0, 16u * cfg.tracesPerClass, sink, &classify);
  return result;
}

}  // namespace lpa
