#pragma once
// Compiled scalar engine.
//
// CompiledSim runs the exact event-driven algorithm of the reference
// EventSim (sim/event_sim.h) over the flat tables of a CompiledDesign, one
// trace at a time. Acquisition does not use it: the batch engine
// (sim/batch_sim.h) serves every eligible design. It is kept for the
// repository benchmark's per-engine probe and as the third engine of the
// differential tests. Three structural differences from the reference
// change speed but not results:
//
//   1. All dynamic state lives in reusable per-instance arenas (a
//      monotone calendar event queue, pending-event struct-of-arrays,
//      committed values, last-commit times, a trace accumulator). After the
//      first run no allocation happens — the reference engine allocates a
//      priority queue, a transition log, and a settle vector per trace.
//   2. Fanout walks use the design's CSR arrays instead of nested vectors.
//   3. runFused() deposits each committed transition's power pulse onto
//      the 50 GS/s sample grid *at commit time* (power_detail::depositPulse,
//      the same inline FP expressions PowerModel::sample executes), so the
//      fast path never materializes the intermediate Transition vector.
//      run() keeps the recorded-transitions mode for consumers that need
//      the event log (VCD export, fault classification, ablations).
//
// ## Bit-identity contract
//
// For any stimulus sequence, CompiledSim produces bit-identical results to
// EventSim on the same (Netlist, DelayModel, PowerModel):
//
//   * identical committed values and output values after settle()/run();
//   * identical Transition lists from run() (time, net, value, weight);
//   * runFused() returns exactly PowerModel::sample(run(...), seed);
//   * identical SimStats tallies (events processed / committed / cancelled
//     / inertial-filtered / peak queue depth / watchdog headroom);
//   * identical SimDiverged behaviour under a watchdog budget.
//
// The calendar queue pops in exactly the reference priority queue's order
// because (time, seq) is a strict total order (seq is unique) and any
// correct min-queue realizes it; arrival times and all deposition
// arithmetic reuse the very same inline helpers and expression shapes.
// tests/test_compiled_sim.cpp and the differential fuzzer
// (tests/engine_fuzz.h) enforce the contract across every implementation
// style, delay kind and device age. The engine keeps its tallies in
// stats() only; it feeds no metrics registry and no profiler.

#include <cstdint>
#include <vector>

#include "sim/compiled_design.h"
#include "sim/event_sim.h"

namespace lpa {

class CompiledSim {
 public:
  /// `design` must outlive the sim and stay unmodified while it runs (it
  /// is read-only during simulation, so several sims may share it — the
  /// EventSim sharing contract). Throws std::invalid_argument for designs
  /// beyond the packed-event net capacity (2^24 gates).
  CompiledSim(const CompiledDesign& design, const SimOptions& options);

  /// Clears dynamic state as if freshly constructed (arenas keep their
  /// capacity — reset does not give memory back).
  void reset();

  /// Establishes a steady state with the given inputs (inputs() order).
  void settle(const std::vector<std::uint8_t>& inputValues);

  /// Recorded-transitions mode: applies new inputs at t = 0, simulates to
  /// quiescence, returns all committed transitions time-ordered —
  /// bit-identical to EventSim::run.
  std::vector<Transition> run(const std::vector<std::uint8_t>& inputValues);

  /// Fused fast path: simulates to quiescence depositing every committed
  /// pulse straight onto the sample grid, then adds measurement noise
  /// (noiseSeed convention of PowerModel::sample). Returns the internal
  /// trace arena — valid until the next runFused()/reset() on this
  /// instance; callers copy it out (TraceSet::add does).
  const std::vector<double>& runFused(
      const std::vector<std::uint8_t>& inputValues, std::uint64_t noiseSeed);

  /// Current committed value of a net.
  std::uint8_t value(NetId net) const { return state_[net]; }

  /// Values of the primary outputs in outputs() order.
  std::vector<std::uint8_t> outputValues() const;

  /// Cumulative instrumentation since construction or reset(),
  /// field-for-field comparable with EventSim::stats().
  const SimStats& stats() const { return stats_; }

  const CompiledDesign& design() const { return *design_; }
  const SimOptions& options() const { return opts_; }

 private:
  /// Packed 16-byte event. `timeBits` is the raw IEEE-754 pattern of the
  /// (non-negative) arrival time — unsigned comparison of the patterns
  /// equals numeric comparison for non-negative doubles — and `key` packs
  /// (seq << 25) | (net << 1) | value with the per-run sequence number in
  /// the high bits. Comparing (timeBits, key) therefore realizes exactly
  /// the reference (time, seq) strict total order, with branch-light
  /// integer compares in the sort. Capacity: nets < 2^24 (enforced in the
  /// constructor), seqs < 2^39 per run (astronomically above any
  /// non-diverged run; the watchdog exists for the rest).
  struct QueueEvent {
    std::uint64_t timeBits;
    std::uint64_t key;
  };

  /// Monotone calendar queue over (time, seq). Simulated time never moves
  /// backwards (every scheduled arrival satisfies eta >= now because gate
  /// delays are positive), so events are binned by time into fixed-width
  /// buckets drained front to back by a monotone cursor. Pushes append
  /// unsorted (O(1)); a bucket is sorted by (time, seq) once, when the
  /// cursor first drains it, and the rare arrival into the bucket
  /// *currently being drained* does a sorted insert into its unpopped
  /// tail. Bucket ranges are disjoint time intervals, so draining
  /// bucket-by-bucket pops the exact global (time, seq) minimum — the same
  /// strict total order the reference priority queue realizes. The last
  /// bucket is open-ended ([cap * width, inf)), which bounds memory on
  /// pathological time horizons without changing the order. Exhausted
  /// buckets are scrubbed as the cursor leaves them, so a completed run
  /// leaves the calendar clean and the next run's setup is O(1); the dirty
  /// list exists for the exceptional exits (reset, divergence throw).
  static constexpr double kBucketWidthPs = 0.5;
  static constexpr std::size_t kMaxBuckets = std::size_t(1) << 20;

  template <typename CommitSink>
  void runCore(const std::vector<std::uint8_t>& inputValues,
               CommitSink&& commit);
  void recordRun(std::uint64_t popped, std::uint64_t committed,
                 std::uint64_t cancelled, std::uint64_t filtered,
                 std::uint64_t peakDepth);
  void queuePush(double time, std::uint64_t key);
  QueueEvent queuePop();
  void scrubQueue();

  const CompiledDesign* design_;
  SimOptions opts_;

  // Reusable arenas (allocation-free after warm-up).
  std::vector<std::uint8_t> state_;
  std::vector<std::vector<QueueEvent>> buckets_;
  std::vector<std::uint32_t> bucketHead_;  ///< per bucket: next unpopped
  std::vector<std::uint8_t> bucketSorted_; ///< per bucket: drain begun
  std::vector<std::uint32_t> dirtyBuckets_;  ///< buckets touched this run
  std::size_t bucketCursor_ = 0;             ///< first possibly non-empty
  std::size_t eventsInQueue_ = 0;
  std::vector<std::uint64_t> pendSeq_;
  std::vector<std::uint8_t> pendValue_;
  std::vector<std::uint8_t> pendActive_;
  std::vector<double> lastCommitPs_;
  std::vector<std::uint32_t> changedInputs_;
  std::vector<double> trace_;
  std::uint64_t seqCounter_ = 0;

  SimStats stats_;
};

}  // namespace lpa
