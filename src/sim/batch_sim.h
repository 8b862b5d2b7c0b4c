#pragma once
// Bit-parallel batch simulation engine: 64 traces per gate operation.
//
// BatchSim packs the net values of up to kLanes = 64 independent traces
// ("lanes") into one std::uint64_t word per net (bit l = lane l's value)
// and runs the exact event-driven algorithm of the reference EventSim
// (sim/event_sim.h) word-parallel over the flat tables of a CompiledDesign.
// Gate evaluation becomes a handful of bitwise ops producing all 64 lanes
// at once (see evalTable64 in batch_sim.cpp), and lanes whose waveforms
// coincide share queue entries, so the per-trace event cost drops by up to
// the cluster factor of the stimulus set.
//
// ## Lane-masked event waves
//
// Event times stay continuous: rounding them onto a grid would break the
// engines' bit-identity contract (arrival times are jittered per-gate
// delays, and both the partial-swing weight and the pulse-deposition
// arithmetic consume exact times) and would merge the arrival-time races
// that are the glitch leakage under study (DESIGN.md §14). A grid is used
// only where it is harmless — the calendar queue's bucket index orders
// events without ever rounding their committed times, and the design's
// delay extrema (CompiledDesign::min/maxDelayPs) size the calendar's
// bucket width and ring ("Calendar ring" below). Arrival-time races
// reproduce lane-by-lane exactly as in the scalar engines.
//
// Each queue entry is one "wave": a (time, net, lane-mask, lane-values)
// tuple covering every lane that scheduled that net at that time, in one
// scheduleGate call or in later calls that joined it ("Wave merging").
// Per lane, the engine behaves exactly like a private scalar EventSim:
//
//   * scheduling splits the triggering lane set with word ops into the
//     reference algorithm's branch sets (transport push; inertial
//     same-value no-op / glitch swallow / superseding re-push / fresh
//     push) and pushes or joins at most one wave per call;
//   * a popped wave is processed word-parallel — validity + no-op
//     filtering, then the commit with the reference partial-swing weight
//     expressions per lane — after an armed watchdog has walked its lanes
//     in ascending order with the reference pop/budget accounting.
//
// ## Calendar ring
//
// The queue is a calendar of time buckets (width: half the smallest gate
// delay) drained front to back by a monotone cursor. A bucket is sorted
// by (timeBits, key) when the cursor first drains it, and a push into the
// draining bucket is inserted in order, so bucketing never reorders
// waves. A push lands at most one gate delay after the popped wave: in
// the cursor's bucket or one of the floor(maxDelayPs / width) + 1 after
// it. The calendar is therefore a ring of floor(maxDelayPs / width) + 3
// slots (one of slack for rounding) rounded up to a power of two, bucket
// b in slot b mod the ring size, and a slot is scrubbed as the cursor
// leaves it. It grows with maxDelayPs, not with logic depth: RSM-ROM (137
// levels) needs 16 slots where a calendar over its combinational horizon
// maxDelayPs x numLevels kept 1197 buckets.
//
// ## Ordering (why no tie-break waiver is needed)
//
// The queue pops waves by (timeBits, pushId) where pushId increments once
// per new wave. Without merging, restricted to the entries covering one
// lane l, push-call order equals lane l's scalar push order (both are the
// same traversal: input order, then committed-event fanout walks in CSR
// edge order, and a wave covers l only if it was triggered by an
// l-commit), and pushId is monotone in call order. So for any two
// same-time waves covering l, the pushId order equals the scalar per-lane
// (time, seq) order — the batch engine realizes every lane's reference pop
// order *exactly*, with no tie-break waiver. The same argument orders each
// lane's pulse deposition (and hence the FP accumulation order into every
// sample bin) identically to the scalar engines.
//
// ## Wave merging
//
// Lanes split into separate pushes often schedule the same net at the
// same time again in a later call. A push of lanes P to (t, g) therefore
// joins W, the last wave pushed on g in this run (the per-net open-wave
// table), when all four of these hold:
//   1. W has the same time bits t;
//   2. W's lanes are disjoint from P;
//   3. W's bucket has not started draining (so W's slot is stable);
//   4. no wave pushed into that bucket after W has time t and shares a
//      lane with P.
// Joined lanes pop with W's pushId instead of a fresh, larger one. For a
// lane l in P, that changes only its order against waves at time t pushed
// between W and this push; those sit after W in W's bucket, and condition
// 4 says none covers l. Condition 2 keeps every wave at one event per
// lane. So every lane keeps its reference pop order, and with it its
// transitions, trace, stats and SimDiverged payload, with or without the
// watchdog. In inertial mode a joined lane takes W's pushId as its pending
// id. A 1-lane run can never merge, so it is the unmerged twin of each
// lane of a merged run (tests/test_batch_sim.cpp, BatchMerge.*).
//
// ## Derived tallies and transport no-ops
//
// With transport delays a net's delay is fixed and time never falls, so a
// net's events pop in push order, and an event that repeats the lane's
// last scheduled value could never commit. Without a watchdog, the engine
// drops such lanes at push (lastSchedW_, copied from the settled state at
// run start); an armed watchdog queues them, so a trip lands on the same
// event as in the reference.
//
// Per-lane SimStats tallies are derived, not counted per popped lane:
// committedTransitions counts the lane's commits, and cancelledEvents is
// eventsProcessed minus the commits after t = 0 (and minus the tripping
// event of a diverged lane). An armed watchdog counts eventsProcessed lane
// by lane in pop order. Without one the queue drains, so it is derived too:
//   * transport: per commit of the lane (t = 0 included), the committing
//     net's fanout edges — each is exactly one reference event, queued or
//     suppressed (source gates take no fanin);
//   * inertial: one per push of the lane, fresh or joined.
// BatchSim tracks no per-lane queue depth: laneStats().peakQueueDepth
// stays 0.
//
// ## Bit-identity contract
//
// For every lane l < activeLanes(), BatchSim is bit-identical to an
// EventSim (and a CompiledSim) fed lane l's stimuli on the same design:
//   * identical committed values / outputs after settle()/run();
//   * identical per-lane Transition lists (time, net, value, weight);
//   * runFused() lane traces equal PowerModel::sample(run(...), seed);
//   * identical per-lane SimStats tallies (laneStats()), every field but
//     peakQueueDepth;
//   * identical SimDiverged payload for the diverged lane (divergedLane());
//     after a throw only that lane's stats are contractually meaningful —
//     the other lanes stopped mid-flight. Call settle() before reuse.
// tests/test_batch_sim.cpp and the differential fuzzer
// (tests/test_engine_fuzz.cpp) enforce the contract.
//
// ## Eligibility
//
// An index-ordered netlist — fault overlays included, except a forward
// bridge — a matching power model and < 2^24 gates (CompiledDesign, the
// constructor and acquisition's engine selection enforce this). Acquisition
// under SimEngine::Auto runs every such design on this engine, at any call
// size: any active lane count 1..64 is supported, so a call of fewer
// distinct stimuli than lanes, and the partial trailing group of a longer
// one, need no special casing. Instrumentation lands
// in "sim.batch.*" (and the shared "power.*") instruments;
// "sim.batch.waves" counts queue pops, so events_processed / waves is the
// number of reference events one wave stands for.

#include <array>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "sim/compiled_design.h"
#include "sim/event_sim.h"

namespace lpa {

class BatchSim {
 public:
  /// Lane capacity of one batch: the word width of the packed net values.
  static constexpr std::uint32_t kLanes = 64;

  /// `design` must outlive the sim and stay unmodified while any clone is
  /// running (the EventSim sharing contract); the calendar ring is
  /// sized from its maxDelayPs here, so refresh() it before, not after,
  /// constructing the sim. Throws std::invalid_argument for designs
  /// beyond the packed-event net capacity (2^24 gates).
  BatchSim(const CompiledDesign& design, const SimOptions& options);

  /// Cheap copy for worker pools: shares the design tables and the metrics
  /// attachment, starts from fresh dynamic state and zeroed stats.
  BatchSim clone() const;

  /// Clears dynamic state as if freshly constructed (arenas keep their
  /// capacity — reset does not give memory back).
  void reset();

  /// Establishes a steady state: lane l settles on laneInputs[l]
  /// (inputs() order). 1..kLanes lanes; sets activeLanes() for the
  /// following run()/runFused() calls.
  void settle(const std::vector<std::vector<std::uint8_t>>& laneInputs);

  /// Recorded-transitions mode: applies lane l's new inputs at t = 0,
  /// simulates all lanes to quiescence, and fills the per-lane transition
  /// logs (laneTransitions()) — each bit-identical to EventSim::run on
  /// that lane's stimuli. laneInputs.size() must equal activeLanes().
  void run(const std::vector<std::vector<std::uint8_t>>& laneInputs);

  /// Fused fast path: simulates all lanes to quiescence depositing every
  /// committed pulse straight onto each lane's sample grid, then adds
  /// per-lane measurement noise (noiseSeeds[l], the PowerModel::sample
  /// convention). Lane traces are read via laneTrace() and stay valid
  /// until the next run/runFused/reset on this instance.
  void runFused(const std::vector<std::vector<std::uint8_t>>& laneInputs,
                const std::vector<std::uint64_t>& noiseSeeds);

  /// Zero-delay outputs of 1..kLanes input vectors at once: element l is
  /// `design`'s primary outputs (outputs() order) for laneInputs[l]. This
  /// is settle()'s word-parallel pass without an engine's arenas —
  /// bit-identical per lane to Netlist::evaluateOutputs on an index-
  /// ordered netlist.
  static std::vector<std::vector<std::uint8_t>> evaluateOutputs(
      const CompiledDesign& design,
      const std::vector<std::vector<std::uint8_t>>& laneInputs);

  /// Lanes configured by the last settle().
  std::uint32_t activeLanes() const { return activeLanes_; }

  /// Current committed value of a net in one lane.
  std::uint8_t value(NetId net, std::uint32_t lane) const {
    return static_cast<std::uint8_t>((stateW_[net] >> lane) & 1u);
  }

  /// Values of lane `lane`'s primary outputs in outputs() order.
  std::vector<std::uint8_t> outputValues(std::uint32_t lane) const;

  /// Lane `lane`'s transition log from the last run().
  const std::vector<Transition>& laneTransitions(std::uint32_t lane) const {
    return laneLog_[lane];
  }

  /// Lane `lane`'s power trace from the last runFused(): numSamples
  /// doubles, bit-identical to the scalar engines' trace for that lane.
  const double* laneTrace(std::uint32_t lane) const {
    return laneTraces_.data() +
           static_cast<std::size_t>(lane) * design_->numSamples;
  }

  /// Lane-local cumulative instrumentation, field-for-field comparable
  /// with EventSim::stats() for that lane's stimuli, except that
  /// peakQueueDepth stays 0 (see "Derived tallies and transport no-ops").
  const SimStats& laneStats(std::uint32_t lane) const {
    return laneStats_[lane];
  }

  /// Lane whose watchdog budget fired the last SimDiverged throw (-1 if
  /// the last run converged). On simultaneous trips the lowest lane wins.
  int divergedLane() const { return divergedLane_; }

  /// Routes "sim.batch.*" and the shared "power.*" instruments into
  /// `registry` (nullptr detaches). Clones inherit the attachment; the
  /// zero-perturbation contract of obs/metrics.h applies.
  void attachMetrics(obs::MetricsRegistry* registry);

  /// Attaches a cost-attribution profiler (obs/profiler.h): per-net lane-
  /// summed tallies, lane-occupancy histograms (popped/committed lanes per
  /// wave, 0-commit waves included), the calendar-depth timeline bucketed
  /// by sim-time window, fused-pulse attribution, and arena byte samples
  /// flow into it, one flush per run. nullptr detaches; clones inherit the
  /// attachment. Pure sink — bit-identical attached or detached
  /// (tests/test_profiler.cpp).
  void attachProfiler(obs::Profiler* profiler);
  /// Names the next run by its lane group's index among the caller's
  /// groups; each run advances the index by one, and attachProfiler
  /// resets it to 0. With a profiler attached, exactly the runs whose
  /// index is a multiple of Profiler::kRunSampleStride are profiled, so a
  /// caller that names its groups samples the same groups whichever
  /// worker clone runs them.
  void setRunIndex(std::uint64_t index) { profRunIndex_ = index; }

  const CompiledDesign& design() const { return *design_; }
  const SimOptions& options() const { return opts_; }

 private:
  /// Packed 32-byte wave. `timeBits` is the raw IEEE-754 pattern of the
  /// (non-negative) arrival time — unsigned pattern comparison equals
  /// numeric comparison — and `key` packs (pushId << 25) | (net << 1) with
  /// the per-run push counter in the high bits, so comparing
  /// (timeBits, key) realizes every lane's reference (time, seq) order
  /// (see "Ordering" and "Wave merging" above). `mask` is the covered-lane
  /// set; `value` holds the scheduled lane values on the mask bits.
  ///
  /// Field order is load-bearing for the queue: `key` in the low quadword
  /// and `timeBits` in the high quadword make the first 16 bytes, read as
  /// one little-endian unsigned 128-bit integer, equal to
  /// (timeBits << 64) | key — so the calendar's pop order is a single
  /// branchless wide compare instead of a two-field comparator (the
  /// per-bucket sorts dominate queue cost on glitchy transport workloads).
  struct QueueEvent {
    std::uint64_t key;
    std::uint64_t timeBits;
    std::uint64_t mask;
    std::uint64_t value;
  };

  template <typename CommitSink>
  void runCore(const std::vector<std::vector<std::uint8_t>>& laneInputs,
               CommitSink&& commit);
  void recordRun();
  /// Appends `e` to absolute calendar bucket `bucket` (sorted insert if
  /// that bucket is draining) and returns its index in the bucket's slot.
  std::uint32_t queuePush(std::size_t bucket, const QueueEvent& e);
  QueueEvent queuePop();
  /// Empties every ring slot and rewinds the cursor to bucket 0.
  void scrubQueue();

  const CompiledDesign* design_;
  SimOptions opts_;
  double invBucketWidth_ = 2.0;
  /// Per net: the last wave pushed on it, the only one a later push may
  /// join (see "Wave merging"). Valid only while `epoch` equals runEpoch_;
  /// (bucket, idx) locate the wave in the calendar — `bucket` is absolute,
  /// so a slot reused by a later bucket never matches — and stay valid
  /// while that bucket has not started draining, because until then
  /// pushes only append to it.
  struct OpenWave {
    std::uint64_t epoch;
    std::uint64_t bucket;
    std::uint32_t idx;
  };
  std::vector<OpenWave> openWave_;

  // Reusable arenas (allocation-free after warm-up). Packed words hold
  // lane l in bit l; per-(net, lane) scalars are flat numGates x kLanes.
  std::vector<std::uint64_t> stateW_;
  std::vector<std::uint64_t> pendMask_;    ///< per net: lanes with a pending
  std::vector<std::uint64_t> pendValueW_;  ///< per net: pending lane values
  /// Per (net, lane): pending id. Allocated only for DelayKind::Inertial.
  std::vector<std::uint64_t> pendPushId_;
  /// Per net: each lane's last scheduled value, copied from the settled
  /// state at run start (the transport no-op filter). Allocated only for
  /// DelayKind::Transport.
  std::vector<std::uint64_t> lastSchedW_;
  /// Per-(net, lane) time of the net's previous commit in the current run,
  /// valid only for the lanes in the net's CommitLanes mask, and only while
  /// its epoch equals runEpoch_. The per-net pair makes "no commit yet this
  /// run" a lazy default instead of a fill of the numGates x 64 time array
  /// on every run (the hot loop touches only the committing slots): a net's
  /// first commit of a run resets its pair, so the time slot needs no stamp
  /// of its own and stays 8 bytes. A lane outside the mask yields weight
  /// 1.0 — exactly what the scalar engines' -1e30 sentinel produces.
  struct CommitLanes {
    std::uint64_t epoch;
    std::uint64_t mask;
  };
  std::vector<double> lastCommitPs_;      ///< per (net, lane)
  std::vector<CommitLanes> commitLanes_;  ///< per net
  std::uint64_t runEpoch_ = 0;            ///< bumped at every runCore
  std::vector<std::uint64_t> inputWords_;  ///< packed stimulus per input
  std::vector<std::uint32_t> changedNets_;
  std::vector<std::uint64_t> changedMasks_;
  /// One ring slot: its bucket's waves, pop head, and whether the cursor
  /// has started draining it.
  struct Slot {
    std::vector<QueueEvent> waves;
    std::uint32_t head = 0;
    bool sorted = false;
  };
  std::vector<Slot> ring_;  ///< absolute bucket b in slot b & ringMask_
  std::size_t ringMask_ = 0;
  std::size_t bucketCursor_ = 0;  ///< absolute bucket being drained
  std::size_t eventsInQueue_ = 0;
  std::uint64_t pushCounter_ = 0;

  // Per-lane run tallies (zeroed per run; the per-lane twins of the scalar
  // engines' local counters, see "Derived tallies") and scratch shared
  // between pop and sink.
  std::array<std::uint64_t, kLanes> poppedL_{};
  std::array<std::uint64_t, kLanes> committedL_{};    ///< popped commits
  std::array<std::uint64_t, kLanes> inputCommitsL_{}; ///< t = 0 commits
  std::array<std::uint64_t, kLanes> filteredL_{};
  std::uint64_t waves_ = 0;  ///< queue pops of the current run
  std::array<double, kLanes> weightL_{};  ///< commit weights, sink scratch
  std::array<double, kLanes> energyL_{};  ///< deposition scratch

  std::uint32_t activeLanes_ = 0;
  std::uint64_t activeMask_ = 0;
  int divergedLane_ = -1;

  std::array<std::vector<Transition>, kLanes> laneLog_;
  std::vector<double> grid_;        ///< deposition scratch, sample-major
  std::vector<double> laneTraces_;  ///< runFused() results, lane-major

  std::array<SimStats, kLanes> laneStats_{};
  struct MetricHandles {
    obs::Counter runs, batches, waves, events, committed, cancelled,
        inertialFiltered;
    obs::Counter tracesSampled, pulsesDeposited;
    obs::Gauge watchdogMaxEventsUsed, watchdogBudget;
  } metrics_;

  // Cost-attribution profiling (obs/profiler.h): per-run local tallies —
  // per-net lane-summed counters, lanes-per-wave occupancy bins, and the
  // sim-time queue-depth timeline — flushed by recordRun and zeroed on
  // flush. Only every Profiler::kRunSampleStride-th run is profiled (the
  // hooks cost ~10-15% of the pop loop when they execute; the run-level
  // stride amortizes that under the ≤5% attachment gate while keeping
  // each profiled run's tallies exact — profFlush hands them over
  // unscaled, and the profiler counts the runs they cover).
  // The per-net tallies live in one interleaved 32-byte record so a
  // hot-loop hook touches a single cache line per net (five parallel
  // arrays measurably thrashed the batch engine's working set); flush
  // scans all nets, which is trivial next to a run's wave count.
  struct ProfNetTally {
    std::uint32_t scheduled, committed, cancelled, filtered, pulses;
    std::uint32_t pad_;
    std::uint64_t timeNs;
  };
  void profFlush();
  std::uint64_t arenaBytes() const;
  obs::Profiler* profiler_ = nullptr;
  std::uint64_t profRunIndex_ = 0;  ///< next run's index (setRunIndex)
  bool profThisRun_ = false;        ///< current run is a profiled sample
  double profWindowInvPs_ = 0.0;  ///< 1 / timeline window width
  std::vector<ProfNetTally> profTally_;
  std::array<std::uint64_t, 65> profPoppedBins_{};     // kOccupancyBins
  std::array<std::uint64_t, 65> profCommittedBins_{};  // incl. 0-commit bin
  std::uint64_t profWaves_ = 0;
  std::array<std::uint64_t, 64> profTlPops_{};  // kTimelineWindows
  std::array<std::uint64_t, 64> profTlDepthSum_{};
  std::array<std::uint64_t, 64> profTlDepthMax_{};
};

}  // namespace lpa
