#pragma once
// The paper's trace-sampling protocol (Fig. 5).
//
// Each trace:
//   1. the circuit settles on a random encoding of the fixed constant
//      kInitialValue = (0000)b — class '0' (e.g. A_init ^ MI_init = 0 in
//      GLUT);
//   2. at t = 0 a random encoding of the final text t is applied;
//   3. the supply current of the transition window is sampled
//      (100 samples over 2 ns at 50 GS/s).
//
// Class balance: with `tracesPerClass` = 64 and 16 classes this reproduces
// the paper's 1024-trace dataset. Final classes are visited in shuffled
// order (random but balanced, as in the paper).
//
// ## Determinism contract (parallel acquisition)
//
// Acquisition is deterministic in `seed` and *invariant in `numThreads`*:
// the returned TraceSet is bit-identical whether it was collected by one
// worker or many. This holds because no randomness is consumed
// sequentially across traces:
//
//   * the balanced class schedule is shuffled by a dedicated stream,
//     Prng(deriveStreamSeed(seed, kScheduleStream));
//   * trace i draws *everything* it needs — initial-state masks, final
//     encoding masks/gadget randomness, and its power-noise seed — from
//     its own stream Prng(deriveStreamSeed(seed, i)), where i is the
//     trace's position in the schedule (== its index in the TraceSet).
//
// In particular the noise seed passed to PowerModel::sample is a function
// of (seed, i), i.e. of the trace's *identity*, never of schedule position
// in some shared generator or of which worker ran the trace.
//
// ## One simulation per distinct stimulus
//
// The masked styles draw their encodings from tiny mask spaces (0 to 12
// random bits), so a call's traces repeat a few distinct stimuli many
// times: at 2048 traces per class, LUT/OPT have 16 distinct stimuli and
// RSM/RSM-ROM 4095 among 32768 traces. Each call therefore runs in three
// steps:
//
//   1. a plan pass derives every trace's stimulus (in parallel blocks) and
//      numbers the distinct (init, fin, expected) triples in first-
//      occurrence order;
//   2. the pool simulates each distinct triple once, with noise seed 0;
//   3. delivery hands trace i its triple's noiseless samples plus
//      power_detail::addGaussianNoise(..., trace i's noise seed), the last
//      step every engine runs — so every trace is bit-identical to
//      simulating it on its own.
//
// The engines' counters (sim.runs, sim.batch.runs, power.traces_sampled,
// ...) and a profiler therefore count simulations; "acquire.traces_total"
// counts traces and "acquire.distinct_total" the simulated stimuli.
//
// ## Lane groups and windows
//
// Worker 0 runs the prototype engine, the others clones of it (sharing the
// netlist and DelayModel, so process jitter is shared, not re-rolled).
// Workers claim items — a lane group of distinct triples on the batch
// engine, a block of them on the reference engine — from the pool of
// trace/sharded_pool.h. A call of m distinct triples runs on min(workers,
// m) workers, and its lane groups hold ceil(m / workers) triples, at most
// 64: a call too short to give every worker a 64-lane group (a 128-trace
// spot-check) still gives each one a group, and any longer call runs
// 64-lane groups. The triples, in first-occurrence order, are cut
// into windows of whole items, each holding at most W = 64 *
// detail::reorderWindow(workers) single-use triples (1024 at 4 workers).
// A triple used again does not count: it keeps a store row for the whole
// call (at 2048 traces per class 4085 rows of numSamples doubles for
// RSM/RSM-ROM, about 500 for GLUT/ISW, 16 for LUT/OPT), so RSM-ROM's 4095
// triples at that budget form one window.
//
// On the batch engine a window of at least W triples — every window but
// the call's last — is sorted by final encoding, then settle encoding
// (sortByFinalEncoding), before it is cut into lane groups: lanes that end
// in the same state share the batch engine's waves, which cuts RSM-ROM's
// waves 2.8x at that budget. Each lane is independent of the lanes that
// share its group, so the traces stay bit-identical. A shorter window — a
// short call, the tail of a long one — keeps first-occurrence order: with
// few groups per worker, sorted groups have uneven costs and the costliest
// sets the wall time. The reference engine never sorts.
//
// Delivery hands the consumer (a TraceSink, or the TraceSet being filled)
// the traces in trace-index order, so a streaming fold equals a fold over
// the TraceSet: an unsorted window's item delivers every trace before the
// next item's first triple; a sorted window's traces go once its last
// group is done. Workers may run the items of the two oldest undelivered
// windows, so they wait at a window boundary only while two windows are
// undelivered, and single-use samples need at most 2 * W rows (1.6 MB at
// 4 workers and 100 samples), double-buffered by window.
//
// ## Failure semantics
//
// Under the strict policy of acquire(), acquireRange(), acquireBatches()
// and acquireKeyed(), a failure (decode mismatch, SimDiverged, an exception
// from the TraceSink, ...) is a WorkerError (trace/sharded_pool.h) indexed
// by the lowest trace it affects, with the original exception nested: a
// failing triple is named by its first trace, class/plaintext and style —
// among a lane group's failing lanes the one with the lowest first trace,
// not the first in lane order; a lane group failing as a whole (a lane
// tripping the watchdog) by the lowest first trace of its triples. Every
// earlier trace is delivered first — in a sorted window that needs the
// window's other groups to finish — then the remaining workers stop and the
// error is rethrown. The lowest failing index wins, whatever the timing.
// A stimulus that cannot be derived fails the call in the plan pass,
// before any trace is delivered. A progress sink that returns false stops
// delivery between items' worth of traces, also inside a sorted window.
//
// ## The classify policy (faulted designs)
//
// acquireClassified() runs the fixed-class protocol on a faulted design
// (fault/fault_spec.h) through the same plan, pool, windows and engines; it
// differs only where a simulated stimulus ends. Instead of the decode
// check, each distinct triple's outputs are judged (FaultDetection) against
// the fault-free design's zero-delay outputs for its final encoding,
// computed a lane group or reference block at a time with
// BatchSim::evaluateOutputs. A watchdog trip is an outcome, not a failure:
// the triple counts as diverged, with the events its run reached. On the
// batch engine a lane group in which a lane trips re-runs triple by triple
// on a reference clone of the caller's EventSim, so its other lanes are
// still judged and sampled. Every trace counts its triple's outcome, and a
// diverged trace is withheld from the sink, which sees the others in index
// order. Neither a decode mismatch nor a watchdog trip fails the call;
// anything else (a stimulus that cannot be derived, a sink exception, an
// abort) fails it as above.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/progress.h"
#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/event_sim.h"
#include "trace/trace_set.h"

namespace lpa {

class BatchSim;
class CompiledDesign;

/// Which simulation engine serves an acquisition.
///
/// `Auto` (the default) serves every eligible design with the bit-parallel
/// batch engine (sim/batch_sim.h, 64 traces per gate operation), at any
/// call size — a call of fewer distinct stimuli than lanes runs partial
/// lane groups — and every other design with the reference EventSim, so
/// Auto never throws. Eligibility is purely a property of the design: an
/// index-ordered netlist (Netlist::isIndexOrdered: every fault overlay
/// keeps it except a bridge to a later net, which may close a loop), a
/// power model built for it (acquisition never needs the recorded
/// transition list; power deposition is fused into the commit step) and
/// fewer than 2^24 gates. The two engines are bit-identical (same traces,
/// same determinism digest, same per-trace event tallies; enforced by
/// tests/test_batch_sim.cpp and the differential fuzzer), so `Auto` is
/// safe everywhere; `Reference` forces the reference engine for A/B
/// benchmarking, CI digest cross-checks and the resilience layer's
/// spot-checks and quarantine.
enum class SimEngine : std::uint8_t {
  Auto,       ///< batch on an eligible design, reference otherwise
  Reference,  ///< always the reference EventSim
};

/// The fixed constant (0000)b every trace of the Fig. 5 protocol settles on
/// before its final value is applied.
inline constexpr std::uint8_t kInitialValue = 0x0;

struct AcquisitionConfig {
  std::uint32_t tracesPerClass = 64;
  /// Part of the calibrated operating point (DESIGN.md §5): the masked
  /// styles' finite-sample leakage estimates are mask-draw dependent, and
  /// this seed reproduces the paper's Fig. 7 ordering with the per-trace
  /// stream derivation.
  std::uint64_t seed = 0xCAFE0003ULL;
  /// Worker threads for acquisition. 0 = std::thread::hardware_concurrency.
  /// Any value yields bit-identical results (see determinism contract).
  std::uint32_t numThreads = 0;
  /// Optional progress sink (obs/progress.h): called rate-limited with
  /// (done, total, ETA) as traces finish; returning false aborts the
  /// acquisition cooperatively (throws obs::ProgressAborted). Reporting is
  /// a pure sink — with or without a sink the TraceSet is bit-identical.
  obs::ProgressFn progress;
  /// Engine selection; any choice yields bit-identical results (see
  /// SimEngine).
  SimEngine engine = SimEngine::Auto;

  // ## Convergence-gated (adaptive) acquisition
  //
  // Read by the group loop of the resilience layer (jobs/resilient.h): an
  // adaptive run streams acquireBatches()'s batch-major protocol and stops
  // as soon as the relative half-width of the streaming total-leakage CI
  // reaches `targetCiRel`, or at `maxTraces`; acquire(), acquireRange() and
  // acquireKeyed() reject `adaptive`. `tracesPerClass` only serves as the
  // default for maxTraces.
  bool adaptive = false;
  /// Stop once halfWidth(total-leakage CI) / total <= this.
  double targetCiRel = 0.10;
  /// Traces per adaptive batch; must be a positive multiple of 16 so every
  /// batch stays class-balanced.
  std::uint32_t batchSize = 128;
  /// Adaptive trace budget; 0 = 16 * tracesPerClass. Must be a multiple
  /// of 16.
  std::uint64_t maxTraces = 0;

  // ## Durable (deadline-bounded, retrying) acquisition
  //
  // These knobs are honored by the resilience layer (jobs/resilient.h),
  // which commits acquisition group by group with checkpoint/resume; plain
  // acquire(), acquireRange() and acquireKeyed() ignore them (they have no
  // partial-result channel to return a truncated TraceSet through).

  /// Wall-clock budget in milliseconds for a resilient run (0 = none).
  /// The run reads it at group boundaries and as it reports progress; on
  /// expiry it returns the committed prefix with `truncated` set in its
  /// ResilienceInfo instead of throwing.
  std::uint64_t deadlineMs = 0;
  /// Total retried group attempts a resilient run tolerates before the
  /// per-group failure escalates as a structured WorkerError.
  std::uint32_t trapBudget = 16;
};

/// The Fig. 5 protocol's balanced, shuffled 16-class schedule: 16 *
/// tracesPerClass entries, shuffled by the dedicated schedule stream of
/// `seed`. Exposed so tests and benchmarks can rebuild a run trace by trace.
std::vector<std::uint8_t> balancedClassSchedule(std::uint32_t tracesPerClass,
                                                std::uint64_t seed);

/// Everything one trace consumes. Trace i draws it from its own stream
/// Prng(deriveStreamSeed(seed, i)), so it depends only on (seed, i) and
/// the protocol's parameters — never on the engine or the worker.
struct TraceStimulus {
  std::vector<std::uint8_t> init;  ///< encoding the circuit settles on
  std::vector<std::uint8_t> fin;   ///< encoding applied at t = 0
  std::uint64_t noiseSeed = 0;     ///< measurement-noise seed
  std::uint8_t label = 0;          ///< TraceSet label: class or plaintext
  std::uint8_t expected = 0;       ///< S-box output the decode must give
};

/// Maps a trace index to its stimulus.
using StimulusFn = std::function<TraceStimulus(std::size_t)>;

/// Trace `i` of acquire()'s fixed-class protocol under `seed`: settle on a
/// random encoding of kInitialValue, then apply a random encoding of `cls`;
/// labelled `cls`, expecting kPresentSbox[cls].
TraceStimulus classStimulus(const MaskedSbox& sbox, std::uint64_t seed,
                            std::uint8_t cls, std::size_t i);

/// Simulates traces [base, base + lanes) as one BatchSim lane group (lane
/// l is trace base + l; 1 <= lanes <= BatchSim::kLanes): settles every lane
/// on its stimulus' `init`, then runs its `fin` with fused deposition and
/// its noise seed. Lane l's outputs and trace are then read from `sim`
/// (outputValues(l), laneTrace(l)); returns the lanes' stimuli. A lane
/// tripping the watchdog propagates SimDiverged. This is the batch-engine
/// body of every acquisition, strict or classified, which calls it with
/// `stimulus` reading a lane order.
std::vector<TraceStimulus> runLaneGroup(BatchSim& sim,
                                        const StimulusFn& stimulus,
                                        std::size_t base, std::size_t lanes);

/// Sorts ids[0, count) — an acquisition window's stimuli, about to be cut
/// into lane groups — by final encoding, then settle encoding, then id, so
/// lanes that end in the same state share a group and hence the batch
/// engine's waves.
/// `encodingsOf(id)` returns {init, fin}, `width` values each. The sort runs
/// on a packed key: one bit per value (its low bit), fin's first value
/// most significant, then init's; designs of more than 32 inputs sort by
/// the first 64 of those bits, then by id. Only the grouping depends on the
/// order: each lane's trace is the same in any group.
template <typename EncodingsOf>
void sortByFinalEncoding(std::uint32_t* ids, std::size_t count,
                         std::size_t width, const EncodingsOf& encodingsOf) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(count);
  const std::size_t bits = std::min<std::size_t>(2 * width, 64);
  for (std::size_t k = 0; k < count; ++k) {
    const auto [init, fin] = encodingsOf(ids[k]);
    std::uint64_t key = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      key = key << 1 | ((b < width ? fin[b] : init[b - width]) & 1u);
    }
    keyed[k] = {key, ids[k]};
  }
  std::sort(keyed.begin(), keyed.end());
  for (std::size_t k = 0; k < count; ++k) ids[k] = keyed[k].second;
}

/// Consumer of traces: called once per trace in trace-index order, on one
/// thread at a time; `samples` (numSamples values) is valid for the call.
using TraceSink = std::function<void(std::uint8_t label, const double*)>;

/// Collects a balanced, labelled trace set from `sbox` using the simulator
/// and power model (both must be built for sbox.netlist()). `sim` is used
/// as the prototype for per-worker clones (netlist, delay model, options,
/// metrics and profiler attachments — also when the batch engine serves
/// the run); its state after the call is unspecified. cfg.adaptive must
/// be false.
TraceSet acquire(const MaskedSbox& sbox, EventSim& sim,
                 const PowerModel& power,
                 const AcquisitionConfig& cfg = {});

/// Collects the contiguous slice [begin, end) of the run acquire() would
/// collect for `cfg` (global schedule indices; end <= 16 * tracesPerClass).
/// Because trace i draws everything from Prng(deriveStreamSeed(seed, i)),
/// concatenating slices in index order is bit-identical to one full
/// acquire() — the property the checkpoint/resume layer (jobs/resilient.h)
/// is built on. Engine and thread count are free per slice. cfg.adaptive
/// must be false (adaptive runs are sliced by batch, not by index); a bad
/// slice or an adaptive `cfg` throws std::invalid_argument.
TraceSet acquireRange(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::size_t begin, std::size_t end);

/// acquireRange() that hands each trace to `sink` in index order instead
/// of storing it — the one streaming entry point of the fixed-class
/// protocol; [0, 16 * tracesPerClass) streams the whole run.
void acquireRange(const MaskedSbox& sbox, EventSim& sim,
                  const PowerModel& power, const AcquisitionConfig& cfg,
                  std::size_t begin, std::size_t end, const TraceSink& sink);

/// Stream index of the adaptive batch-seed domain, far outside any trace
/// index (~0 = schedule shuffle, ~1 = fault campaign).
inline constexpr std::uint64_t kAdaptiveBatchStream = ~2ULL;

/// Trace count of the batch-major run `cfg` describes: cfg.maxTraces, or
/// 16 * tracesPerClass when that is 0. Throws std::invalid_argument unless
/// cfg.batchSize and the count are positive multiples of 16.
std::uint64_t batchMajorTraces(const AcquisitionConfig& cfg);

/// The batch-major protocol of convergence-gated runs: trace i is trace
/// i % batchSize of batch g = i / batchSize, a balanced acquire() run of
/// its own size (the last batch may be shorter) under seed
/// deriveStreamSeed(deriveStreamSeed(cfg.seed, kAdaptiveBatchStream), g).
/// Streams traces [begin, end) of the batchMajorTraces(cfg)-trace run to
/// `sink` as acquireRange() does (a bad slice throws
/// std::invalid_argument): bit-identical to per-batch calls, whatever the
/// engine, threads or slicing. Reads cfg.batchSize and cfg.maxTraces
/// whether or not cfg.adaptive is set; progress: "acquire-batches".
void acquireBatches(const MaskedSbox& sbox, EventSim& sim,
                    const PowerModel& power, const AcquisitionConfig& cfg,
                    std::size_t begin, std::size_t end, const TraceSink& sink);

/// Variant for attack studies (CPA): `numTraces` traces whose final value
/// is `plain ^ key` with uniformly random `plain`; the trace label is the
/// *plaintext* nibble. Trace i draws `plain` first from its stream
/// Prng(deriveStreamSeed(cfg.seed, i)), then the fixed-class protocol's
/// draws, so it depends only on (cfg.seed, i) and the result is invariant
/// in cfg.numThreads and cfg.engine. cfg.progress ("acquire-keyed") is
/// honoured as in acquire(); cfg.tracesPerClass is unused
/// and cfg.adaptive must be false (std::invalid_argument). Runs the same
/// engine bodies as acquire(), decode check included: a netlist that does
/// not compute kPresentSbox[plain ^ key] fails with a WorkerError.
TraceSet acquireKeyed(const MaskedSbox& sbox, EventSim& sim,
                      const PowerModel& power, const AcquisitionConfig& cfg,
                      std::uint8_t key, std::uint32_t numTraces);

/// How a classified trace's run ended, against the fault-free design.
enum class FaultDetection : std::uint8_t {
  /// Every primary-output share matches the fault-free one.
  MaskedOut,
  /// The unmasked decode differs from the fault-free decode, or refuses the
  /// shares: a downstream integrity check would fire.
  DetectedByDecode,
  /// Output shares changed but the decode is still right: the corruption
  /// hides inside the encoding.
  SilentCorruption,
  /// The watchdog budget fired (fault-induced oscillation).
  Diverged,
};

/// Traces per outcome.
struct FaultTraceCounts {
  std::uint32_t maskedOut = 0;
  std::uint32_t detectedByDecode = 0;
  std::uint32_t silentCorruption = 0;
  std::uint32_t diverged = 0;
  std::uint32_t total() const {
    return maskedOut + detectedByDecode + silentCorruption + diverged;
  }
};

/// What acquireClassified() observed.
struct ClassifiedAcquisition {
  FaultTraceCounts counts;
  /// Largest event count a diverging run reached before the watchdog fired.
  std::uint64_t maxWatchdogEvents = 0;
};

/// Runs acquire()'s fixed-class run for `cfg` on `sim`, built for a faulted
/// variant of sbox.netlist(), under the classify policy: every trace is
/// counted by its outcome against `faultFree` (sbox.netlist() lowered with
/// `power`), and every trace that did not diverge goes to `sink` in index
/// order, bit-identical to simulating it alone on `sim`'s design. Engine,
/// threads and progress ("acquire-classified") come from `cfg` as in
/// acquire(), and the result is invariant in all three. cfg.adaptive
/// must be false (std::invalid_argument).
ClassifiedAcquisition acquireClassified(const MaskedSbox& sbox,
                                        const CompiledDesign& faultFree,
                                        EventSim& sim, const PowerModel& power,
                                        const AcquisitionConfig& cfg,
                                        const TraceSink& sink);

}  // namespace lpa
