#include "sim/batch_sim.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/profiler.h"

namespace lpa {

namespace {

inline std::uint64_t timeToBits(double t) {
  std::uint64_t b;
  std::memcpy(&b, &t, sizeof(b));
  return b;
}

inline double bitsToTime(std::uint64_t b) {
  double t;
  std::memcpy(&t, &b, sizeof(t));
  return t;
}

/// Broadcast of one truth-table bit to all 64 lanes.
inline std::uint64_t fill64(unsigned bit) {
  return std::uint64_t(0) - std::uint64_t(bit & 1u);
}

/// One 4-entry truth-table nibble evaluated over two packed fanin words:
/// lane l of the result is nib[a_l + 2 b_l].
inline std::uint64_t plane64(unsigned nib, std::uint64_t a, std::uint64_t b) {
  return (fill64(nib) & ~a & ~b) | (fill64(nib >> 1) & a & ~b) |
         (fill64(nib >> 2) & ~a & b) | (fill64(nib >> 3) & a & b);
}

/// Word-parallel twin of CompiledSim's evalTable: gathers the four packed
/// fanin words (unused slots alias slot 0) and evaluates the gate's
/// 16-entry truth table for all 64 lanes at once. Lane l of the result is
/// bit (a_l | b_l<<1 | c_l<<2 | d_l<<3) of tt — boolean-identical to the
/// scalar gather by construction. A gate with at most two fanins has a
/// table that ignores index bits 2-3 (CompiledDesign), so its low nibble
/// over the first two fanin words is the whole evaluation.
inline std::uint64_t evalTable64(const std::uint32_t* fan, unsigned numFanin,
                                 std::uint16_t tt,
                                 const std::uint64_t* stateW) {
  const std::uint64_t a = stateW[fan[0]];
  const std::uint64_t b = stateW[fan[1]];
  const std::uint64_t r0 = plane64(tt & 0xFu, a, b);
  if (numFanin <= 2) return r0;
  const std::uint64_t c = stateW[fan[2]];
  const std::uint64_t d = stateW[fan[3]];
  const std::uint64_t r1 = plane64((tt >> 4) & 0xFu, a, b);
  const std::uint64_t r2 = plane64((tt >> 8) & 0xFu, a, b);
  const std::uint64_t r3 = plane64((tt >> 12) & 0xFu, a, b);
  const std::uint64_t q0 = (r0 & ~c) | (r1 & c);
  const std::uint64_t q1 = (r2 & ~c) | (r3 & c);
  return (q0 & ~d) | (q1 & d);
}

inline int ctz64(std::uint64_t w) { return __builtin_ctzll(w); }

/// First 16 bytes of a QueueEvent as one little-endian unsigned 128-bit
/// integer: (timeBits << 64) | key. Comparing these realizes the calendar's
/// (timeBits, key) pop order as a single branchless wide compare.
inline unsigned __int128 orderBits(const void* event) {
  unsigned __int128 k;
  std::memcpy(&k, event, sizeof(k));
  return k;
}

/// Lanes set in a word. Inline bit arithmetic rather than
/// __builtin_popcountll: without -mpopcnt (baseline x86-64) that builtin
/// is a libgcc call, and the fused sink and the profiler hooks count lanes
/// once or more per wave.
inline unsigned popcount64(std::uint64_t w) {
  w -= (w >> 1) & 0x5555555555555555ULL;
  w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
  w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<unsigned>((w * 0x0101010101010101ULL) >> 56);
}

}  // namespace

BatchSim::BatchSim(const CompiledDesign& design, const SimOptions& options)
    : design_(&design), opts_(options) {
  if (design.numGates >= (1u << 24)) {
    throw std::invalid_argument(
        "BatchSim: design exceeds the packed-event net capacity (2^24 "
        "gates); use the reference EventSim engine");
  }
  // Calendar tuning from the lowering: bucket width tracks the smallest
  // gate delay (so consecutive wavefronts usually land in distinct
  // buckets) and the ring spans the largest ("Calendar ring").
  const double w =
      design.minDelayPs > 0.0
          ? std::clamp(design.minDelayPs * 0.5, 0.125, 8.0)
          : 0.5;
  invBucketWidth_ = 1.0 / w;
  ring_.resize(std::bit_ceil(
      static_cast<std::size_t>(design.maxDelayPs * invBucketWidth_) + 3));
  ringMask_ = ring_.size() - 1;

  const std::size_t n = design.numGates;
  stateW_.assign(n, 0);
  pendMask_.assign(n, 0);
  pendValueW_.assign(n, 0);
  // Per-(net, lane) push ids are read only by the inertial branches; the
  // transport engine skips the numGates x 64 x 8 B array and instead keeps
  // the per-net last-scheduled word of its push-time no-op filter.
  if (options.kind == DelayKind::Inertial) {
    pendPushId_.assign(n * kLanes, 0);
  } else {
    lastSchedW_.assign(n, 0);
  }
  lastCommitPs_.assign(n * kLanes, 0.0);
  commitLanes_.assign(n, CommitLanes{0, 0});
  inputWords_.assign(design.inputNets.size(), 0);
  // Open-wave table: epoch 0 never matches a live run (runEpoch_ starts
  // its first run at 1), so no per-run clearing is needed.
  openWave_.assign(n, OpenWave{0, 0, 0});
  const std::size_t bins = power_detail::maxPulseBins(
      design.numSamples, design.samplePeriodPs, design.pulseHalfWidthPs);
  binRow_.assign(bins, nullptr);
  binFrac_.assign(bins, 0.0);
}

BatchSim BatchSim::clone() const {
  // Shares the design tables and the metrics attachment (same registry
  // cells), starts from fresh dynamic state and zeroed lane stats; the
  // per-net profile tallies pending here stay here.
  BatchSim copy = *this;
  copy.reset();
  std::fill(copy.profTally_.begin(), copy.profTally_.end(), ProfNetTally{});
  return copy;
}

void BatchSim::reset() {
  std::fill(stateW_.begin(), stateW_.end(), 0);
  std::fill(pendMask_.begin(), pendMask_.end(), 0);
  // lastCommitPs_ needs no fill: a slot is valid only for a lane in its
  // net's commit mask of the current epoch, and runEpoch_ is bumped at
  // every run.
  scrubQueue();
  pushCounter_ = 0;
  activeLanes_ = 0;
  activeMask_ = 0;
  divergedLane_ = -1;
  for (auto& log : laneLog_) log.clear();
  laneStats_.fill(SimStats{});
}

void BatchSim::scrubQueue() {
  for (Slot& slot : ring_) {
    slot.waves.clear();
    slot.head = 0;
    slot.sorted = false;
  }
  bucketCursor_ = 0;
  eventsInQueue_ = 0;
}

void BatchSim::attachMetrics(obs::MetricsRegistry* registry) {
  if (!registry) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.runs = registry->counter("sim.batch.runs");
  metrics_.batches = registry->counter("sim.batch.batches");
  metrics_.waves = registry->counter("sim.batch.waves");
  metrics_.events = registry->counter("sim.batch.events_processed");
  metrics_.committed = registry->counter("sim.batch.transitions_committed");
  metrics_.cancelled = registry->counter("sim.batch.events_cancelled");
  metrics_.inertialFiltered =
      registry->counter("sim.batch.glitches_inertial_filtered");
  // The fused path replaces PowerModel::sample, so it feeds the *same*
  // "power.*" cells — trace/pulse tallies stay engine-agnostic.
  metrics_.tracesSampled = registry->counter("power.traces_sampled");
  metrics_.pulsesDeposited = registry->counter("power.pulses_deposited");
  metrics_.watchdogMaxEventsUsed =
      registry->gauge("sim.batch.watchdog_max_events_used");
  metrics_.watchdogBudget = registry->gauge("sim.batch.watchdog_budget");
  if (opts_.maxEvents != 0) {
    metrics_.watchdogBudget.set(static_cast<double>(opts_.maxEvents));
  }
}

void BatchSim::attachProfiler(obs::Profiler* profiler) {
  flushProfile();
  profiler_ = profiler;
  profRunIndex_ = 0;  // fresh attach: the next run is a profiled sample
  profThisRun_ = false;
  if (!profiler) {
    profTally_ = {};
    return;
  }
  const CompiledDesign& d = *design_;
  profiler->ensureNets(d.numGates);
  for (std::uint32_t id = 0; id < d.numGates; ++id) {
    profiler->noteNetLabel(
        id, std::string(gateTypeName(static_cast<GateType>(d.type[id]))));
  }
  // Timeline windows split the design's combinational horizon; any wave
  // landing past it (jitter can stretch delays a little) folds into the
  // last window.
  const double horizonPs = d.maxDelayPs * d.numLevels;
  const double windowPs =
      horizonPs > 0.0 ? horizonPs / obs::Profiler::kTimelineWindows : 50.0;
  profiler->configureTimeline(windowPs);
  profiler->noteRunStride(obs::Profiler::kRunSampleStride);
  profWindowInvPs_ = 1.0 / windowPs;
  profTally_.assign(d.numGates, ProfNetTally{});
}

void BatchSim::flushProfile() {
  // The tallies are exact and flush as they are: the profiler's counts
  // cover its profiled runs (Profiler::profiledRuns).
  if (profiler_ == nullptr) return;
  for (std::uint32_t net = 0; net < profTally_.size(); ++net) {
    ProfNetTally& t = profTally_[net];
    if ((t.scheduled | t.committed | t.cancelled | t.filtered | t.pulses) ==
            0 &&
        t.timeNs == 0) {
      continue;
    }
    profiler_->addNetEvents(net, t.scheduled, t.committed, t.cancelled,
                            t.filtered);
    if (t.pulses != 0) profiler_->addNetPulses(net, t.pulses);
    if (t.timeNs != 0) profiler_->addNetTimeNs(net, t.timeNs);
    t = ProfNetTally{};
  }
}

void BatchSim::profFlush() {
  profiler_->addOccupancy(profPoppedBins_.data(), profCommittedBins_.data(),
                          profWaves_);
  profiler_->addTimeline(profTlPops_.data(), profTlDepthSum_.data(),
                         profTlDepthMax_.data());
  profPoppedBins_.fill(0);
  profCommittedBins_.fill(0);
  profWaves_ = 0;
  profTlPops_.fill(0);
  profTlDepthSum_.fill(0);
  profTlDepthMax_.fill(0);
  if ((laneStats_[0].runs & (obs::Profiler::kArenaSampleEvery - 1)) == 1) {
    profiler_->recordArena("batch", arenaBytes());
  }
}

std::uint64_t BatchSim::arenaBytes() const {
  std::uint64_t bytes = 0;
  bytes += ring_.capacity() * sizeof(Slot);
  for (const Slot& s : ring_) bytes += s.waves.capacity() * sizeof(QueueEvent);
  bytes += (stateW_.capacity() + pendMask_.capacity() +
            pendValueW_.capacity() + pendPushId_.capacity() +
            inputWords_.capacity()) *
           sizeof(std::uint64_t);
  bytes += lastCommitPs_.capacity() * sizeof(double);
  bytes += commitLanes_.capacity() * sizeof(CommitLanes);
  bytes += lastSchedW_.capacity() * sizeof(std::uint64_t);
  bytes += openWave_.capacity() * sizeof(OpenWave);
  bytes += changedNets_.capacity() * sizeof(std::uint32_t);
  bytes += changedMasks_.capacity() * sizeof(std::uint64_t);
  bytes += (grid_.capacity() + laneTraces_.capacity() + binFrac_.capacity()) *
           sizeof(double);
  bytes += binRow_.capacity() * sizeof(double*);
  return bytes;
}

/// Folds the per-lane run tallies into each lane's cumulative SimStats —
/// the per-lane twin of the scalar engines' recordRun, same formulas —
/// and flushes batch-level aggregates to the attached registry. Called at
/// quiescence and right before a SimDiverged throw (after which only the
/// diverged lane's stats are contractually meaningful).
void BatchSim::recordRun() {
  std::uint64_t sumPopped = 0, sumCommitted = 0, sumCancelled = 0,
                sumFiltered = 0;
  std::uint64_t maxPopped = 0;
  for (std::uint64_t m = activeMask_; m != 0; m &= m - 1) {
    const std::size_t l = static_cast<std::size_t>(ctz64(m));
    SimStats& s = laneStats_[l];
    const std::uint64_t popped = poppedL_[l];
    const std::uint64_t committed = committedL_[l] + inputCommitsL_[l];
    // Every popped event commits or is cancelled, except the one that
    // trips the watchdog; the t = 0 input commits are never popped.
    const std::uint64_t tripped = static_cast<int>(l) == divergedLane_;
    const std::uint64_t cancelled = popped - committedL_[l] - tripped;
    s.runs += 1;
    s.eventsProcessed += popped;
    s.committedTransitions += committed;
    s.cancelledEvents += cancelled;
    s.inertialFiltered += filteredL_[l];
    if (opts_.maxEvents != 0 && popped <= opts_.maxEvents) {
      const std::uint64_t headroom = opts_.maxEvents - popped;
      if (headroom < s.watchdogMinHeadroom) s.watchdogMinHeadroom = headroom;
    }
    sumPopped += popped;
    sumCommitted += committed;
    sumCancelled += cancelled;
    sumFiltered += filteredL_[l];
    maxPopped = std::max(maxPopped, popped);
  }
  metrics_.batches.add(1);
  metrics_.waves.add(waves_);
  metrics_.runs.add(popcount64(activeMask_));
  metrics_.events.add(sumPopped);
  metrics_.committed.add(sumCommitted);
  metrics_.cancelled.add(sumCancelled);
  metrics_.inertialFiltered.add(sumFiltered);
  if (opts_.maxEvents != 0) {
    metrics_.watchdogMaxEventsUsed.recordMax(static_cast<double>(maxPopped));
  }
  if (profiler_) {
    profiler_->noteRun(profThisRun_);  // every run counts, sampled or not
    if (profThisRun_) profFlush();
  }
}

namespace {

/// Packs 1..kLanes input vectors (inputs() order) into one word per input:
/// bit l of words[i] is laneInputs[l][i].
void packLaneInputs(const CompiledDesign& d,
                    const std::vector<std::vector<std::uint8_t>>& laneInputs,
                    std::vector<std::uint64_t>& words) {
  const std::size_t lanes = laneInputs.size();
  if (lanes == 0 || lanes > BatchSim::kLanes) {
    throw std::invalid_argument(
        "BatchSim: lane count must be between 1 and 64");
  }
  for (const auto& one : laneInputs) {
    if (one.size() != d.inputNets.size()) {
      throw std::invalid_argument("wrong number of input values");
    }
  }
  words.assign(d.inputNets.size(), 0);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint8_t* in = laneInputs[l].data();
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] |= std::uint64_t(in[i] & 1u) << l;
    }
  }
}

/// Word-parallel twin of CompiledSim::settle: assign the packed inputs,
/// then one blanket re-evaluation pass in index (== topological) order.
/// Input gates carry identity truth tables over their own state, so the
/// pass needs no per-gate type branch; unused lanes settle on all-zero
/// stimuli.
void settleWords(const CompiledDesign& d,
                 const std::vector<std::uint64_t>& inputWords,
                 std::vector<std::uint64_t>& stateW) {
  stateW.assign(d.numGates, 0);
  for (std::size_t i = 0; i < d.inputNets.size(); ++i) {
    stateW[d.inputNets[i]] = inputWords[i];
  }
  const std::uint32_t* faninArr = d.fanin.data();
  const std::uint16_t* ttArr = d.truthTable.data();
  std::uint64_t* state = stateW.data();
  for (std::uint32_t id = 0; id < d.numGates; ++id) {
    state[id] = evalTable64(faninArr + std::size_t(id) * kMaxFanin,
                            d.numFanin[id], ttArr[id], state);
  }
}

}  // namespace

void BatchSim::settle(
    const std::vector<std::vector<std::uint8_t>>& laneInputs) {
  packLaneInputs(*design_, laneInputs, inputWords_);
  activeLanes_ = static_cast<std::uint32_t>(laneInputs.size());
  activeMask_ = activeLanes_ == kLanes
                    ? ~std::uint64_t(0)
                    : (std::uint64_t(1) << activeLanes_) - 1;
  // Lanes above activeLanes_ are masked out of every observable.
  settleWords(*design_, inputWords_, stateW_);
  std::fill(pendMask_.begin(), pendMask_.end(), 0);
}

std::vector<std::vector<std::uint8_t>> BatchSim::evaluateOutputs(
    const CompiledDesign& design,
    const std::vector<std::vector<std::uint8_t>>& laneInputs) {
  std::vector<std::uint64_t> inputWords, stateW;
  packLaneInputs(design, laneInputs, inputWords);
  settleWords(design, inputWords, stateW);
  std::vector<std::vector<std::uint8_t>> out(
      laneInputs.size(), std::vector<std::uint8_t>(design.outputNets.size()));
  for (std::size_t l = 0; l < out.size(); ++l) {
    for (std::size_t i = 0; i < design.outputNets.size(); ++i) {
      out[l][i] =
          static_cast<std::uint8_t>((stateW[design.outputNets[i]] >> l) & 1u);
    }
  }
  return out;
}

std::vector<std::uint8_t> BatchSim::outputValues(std::uint32_t lane) const {
  const CompiledDesign& d = *design_;
  std::vector<std::uint8_t> out(d.outputNets.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] =
        static_cast<std::uint8_t>((stateW_[d.outputNets[i]] >> lane) & 1u);
  }
  return out;
}

std::uint32_t BatchSim::queuePush(std::size_t bucket, const QueueEvent& e) {
  Slot& slot = ring_[bucket & ringMask_];
  std::vector<QueueEvent>& b = slot.waves;
  b.push_back(e);
  std::size_t j = b.size() - 1;
  if (slot.sorted) {
    // Rare: an arrival into the bucket currently being drained. Sorted
    // insert into the unpopped tail (entries before the head stay put).
    const std::size_t head = slot.head;
    const unsigned __int128 ord = orderBits(&e);
    while (j > head && ord < orderBits(&b[j - 1])) {
      b[j] = b[j - 1];
      --j;
    }
    b[j] = e;
  }
  ++eventsInQueue_;
  return static_cast<std::uint32_t>(j);
}

BatchSim::QueueEvent BatchSim::queuePop() {
  // Caller guarantees eventsInQueue_ > 0; cursor is monotone (arrivals
  // satisfy eta >= now). An exhausted slot is scrubbed as the cursor
  // leaves it, so it is empty when a later bucket maps to it.
  for (;;) {
    Slot& slot = ring_[bucketCursor_ & ringMask_];
    std::vector<QueueEvent>& b = slot.waves;
    if (slot.head < b.size()) {
      if (!slot.sorted) {
        std::sort(b.begin(), b.end(),
                  [](const QueueEvent& a, const QueueEvent& c) {
                    return orderBits(&a) < orderBits(&c);
                  });
        slot.sorted = true;
      }
      --eventsInQueue_;
      return b[slot.head++];
    }
    if (slot.head != 0) {
      b.clear();
      slot.head = 0;
      slot.sorted = false;
    }
    ++bucketCursor_;
  }
}

template <typename WaveSink, typename LaneSink>
void BatchSim::runCore(
    const std::vector<std::vector<std::uint8_t>>& laneInputs,
    WaveSink&& onWave, LaneSink&& onLane) {
  const CompiledDesign& d = *design_;
  if (laneInputs.size() != activeLanes_) {
    throw std::invalid_argument(
        "BatchSim: run lane count does not match the settled lane count");
  }
  packLaneInputs(d, laneInputs, inputWords_);

  // A run leaves its drained bucket in the ring, and a watchdog trip or a
  // throwing sink leaves pending waves too; each run starts by emptying it.
  scrubQueue();
  // Push ids only order waves *within* one run (the queue is empty and
  // every pending slot clear at quiescence), so rebasing per run keeps the
  // counter far inside the 39 packed bits.
  pushCounter_ = 0;
  divergedLane_ = -1;
  waves_ = 0;

  poppedL_.fill(0);
  committedL_.fill(0);
  inputCommitsL_.fill(0);
  filteredL_.fill(0);

  // Attribution profiling (opt-in, loop-invariant branch). The pop loop
  // is tight enough that even a handful of unconditional tally
  // instructions per wave measure ~10-15% — far over the <=5% attachment
  // gate — so the batch engine profiles every kRunSampleStride-th *run*
  // by run index (setRunIndex; index 0 included) exactly and profFlush
  // hands over those runs' tallies, unscaled. A run-level
  // stride keeps every histogram internally exact, costs literally zero
  // instructions in the runs it skips (`prof` below is loop-invariant
  // false), and the stride is coprime to the 16-class dataset cycle so
  // samples rotate through the classes instead of aliasing onto a
  // subset. Occupancy and timeline tallies are per-run locals zeroed by
  // profFlush; wall-time by bucketed sampling over waves — see
  // EventSim::run.
  profThisRun_ = profiler_ != nullptr &&
                 (profRunIndex_++ % obs::Profiler::kRunSampleStride) == 0;
  const bool prof = profThisRun_;
  std::uint32_t profSampleLeft = obs::Profiler::kWallSampleEvery;
  std::chrono::steady_clock::time_point profLastSample;
  if (prof) profLastSample = std::chrono::steady_clock::now();

  // A net's commit mask and open wave are valid only while they carry this
  // run's epoch; bumping it invalidates every lastCommitPs_ slot and every
  // open-wave entry in O(1) instead of refilling per run (a 64-bit epoch
  // never wraps). A stale commit slot reads as "never committed" (weight
  // 1.0), exactly what the scalar engines' -1e30 sentinel encodes.
  ++runEpoch_;
  // An armed watchdog counts pops lane by lane in the reference's order,
  // so SimDiverged payloads stay bit-identical. Without one (the
  // acquisition default) the per-lane event counts are derived from
  // commits and pushes ("Derived tallies" in batch_sim.h), and exact
  // transport no-ops are dropped at push instead of being queued.
  const bool watchdogArmed = opts_.maxEvents != 0 || opts_.maxTimePs > 0.0;
  const bool transport = opts_.kind == DelayKind::Transport;
  const bool suppressNoOps = transport && !watchdogArmed;
  if (suppressNoOps) {
    std::copy(stateW_.begin(), stateW_.end(), lastSchedW_.begin());
  }
  // Derived event increments: a transport commit adds one event per fanout
  // edge of its net (source gates take no fanin, so every edge schedules a
  // reference event, queued or suppressed); an inertial push adds one.
  const std::uint64_t countFanout = !watchdogArmed && transport ? 1 : 0;
  const std::uint64_t countPush = !watchdogArmed && !transport ? 1 : 0;

  const std::uint8_t* typeArr = d.type.data();
  const std::uint32_t* faninArr = d.fanin.data();
  const std::uint8_t* numFaninArr = d.numFanin.data();
  const std::uint16_t* ttArr = d.truthTable.data();
  const std::uint32_t* foOff = d.fanoutOffsets.data();
  const std::uint32_t* foEdge = d.fanoutEdges.data();
  const double* delayArr = d.delayPs.data();
  std::uint64_t* stateW = stateW_.data();
  std::uint64_t* lastSchedW = lastSchedW_.data();
  double* lastCommitPs = lastCommitPs_.data();
  CommitLanes* commitLanes = commitLanes_.data();
  OpenWave* openWave = openWave_.data();

  // Exact merge test for a push of lanes `pushM` at `tBits` into the open
  // wave b[idx] of an undrained bucket: same time, disjoint lanes, and no
  // wave pushed after it at that time shares a lane with the push — then
  // every lane keeps its pop order ("Wave merging" in batch_sim.h).
  const auto keepsLaneOrder = [](const std::vector<QueueEvent>& b,
                                 std::size_t idx, std::uint64_t tBits,
                                 std::uint64_t pushM) {
    if (b[idx].timeBits != tBits || (b[idx].mask & pushM) != 0) return false;
    for (std::size_t i = idx + 1; i < b.size(); ++i) {
      if (b[i].timeBits == tBits && (b[i].mask & pushM) != 0) return false;
    }
    return true;
  };

  // Word-parallel twin of the reference scheduleGate: evaluates the gate
  // over all lanes at once, then splits the triggering lane set `trig`
  // into the reference algorithm's branch sets with word ops. At most one
  // wave is pushed or joined per call, covering every lane that scalar
  // semantics would have pushed for.
  const auto scheduleGate = [&](std::uint32_t gateId, double now,
                                std::uint64_t trig) {
    if (isSourceGate(static_cast<GateType>(typeArr[gateId]))) return;
    const std::uint64_t nvW =
        evalTable64(faninArr + std::size_t(gateId) * kMaxFanin,
                    numFaninArr[gateId], ttArr[gateId], stateW);
    const double eta = now + delayArr[gateId];

    std::uint64_t pushM;
    if (transport) {
      // Transport delay: every triggered lane gets an independent
      // in-flight wavefront. A net's delay is fixed and `now` never falls,
      // so its events pop in push order and one that repeats the lane's
      // last scheduled value could never commit. Without a watchdog it is
      // dropped here; with one it is queued and cancelled at pop, so a
      // trip lands on the reference's event.
      pushM = trig;
      if (suppressNoOps) {
        pushM &= nvW ^ lastSchedW[gateId];
        lastSchedW[gateId] ^= pushM;
      }
    } else {
      // Inertial delay: at most one pending event per (net, lane).
      const std::uint64_t pend = pendMask_[gateId];
      const std::uint64_t diffPend = pendValueW_[gateId] ^ nvW;
      const std::uint64_t diffState = stateW[gateId] ^ nvW;
      // Pending with the same scheduled value: earlier event stands.
      // Pending with a different value that equals the committed state:
      // input pulse shorter than the gate delay — swallow the glitch.
      const std::uint64_t swallow = trig & pend & diffPend & ~diffState;
      // Pending superseded by a new value (re-push) or no pending and a
      // real change (fresh push).
      pushM = (trig & pend & diffPend & diffState) | (trig & ~pend & diffState);
      pendMask_[gateId] = (pend & ~swallow) | pushM;
      pendValueW_[gateId] = (pendValueW_[gateId] & ~pushM) | (nvW & pushM);
      for (std::uint64_t m = swallow; m != 0; m &= m - 1) {
        ++filteredL_[static_cast<std::size_t>(ctz64(m))];
      }
      if (prof && swallow != 0) {
        profTally_[gateId].filtered +=
            static_cast<std::uint32_t>(popcount64(swallow));
      }
    }
    if (pushM == 0) return;
    const std::uint64_t pushV = nvW & pushM;
    if (prof) {
      profTally_[gateId].scheduled +=
          static_cast<std::uint32_t>(popcount64(pushM));
    }

    // The wave keeps the exact arrival time, in the calendar bucket it
    // falls into. It joins the net's open wave only under keepsLaneOrder,
    // else it is pushed with a fresh push id. Either way the wave's push
    // id is the inertial pending identity that the pop-side liveness check
    // compares.
    const std::size_t bucket = static_cast<std::size_t>(eta * invBucketWidth_);
    const std::uint64_t tBits = timeToBits(eta);
    OpenWave& open = openWave[gateId];
    Slot& slot = ring_[bucket & ringMask_];
    std::uint64_t waveId;
    if (open.epoch == runEpoch_ && open.bucket == bucket && !slot.sorted &&
        keepsLaneOrder(slot.waves, open.idx, tBits, pushM)) {
      QueueEvent& w = slot.waves[open.idx];
      w.mask |= pushM;
      w.value = (w.value & ~pushM) | pushV;
      waveId = w.key >> 25;
    } else {
      waveId = ++pushCounter_;
      const std::uint64_t key = (waveId << 25) | (std::uint64_t(gateId) << 1);
      open = OpenWave{runEpoch_, bucket,
                      queuePush(bucket, QueueEvent{key, tBits, pushM, pushV})};
    }
    if (!transport) {
      std::uint64_t* pendId = pendPushId_.data() + std::size_t(gateId) * kLanes;
      for (std::uint64_t m = pushM; m != 0; m &= m - 1) {
        const std::size_t l = static_cast<std::size_t>(ctz64(m));
        pendId[l] = waveId;
        poppedL_[l] += countPush;
      }
    }
  };

  // Diverging exit: one lane's watchdog fired while processing wave lanes
  // in ascending order (the lowest tripping lane wins). Mirrors the scalar
  // engines: record, throw with that lane's scalar payload. The
  // other lanes stopped mid-flight — only the diverged lane's stats are
  // contractually meaningful afterwards.
  const auto diverge = [&](int lane, double eTime) {
    divergedLane_ = lane;
    recordRun();
    throw SimDiverged(poppedL_[static_cast<std::size_t>(lane)], eTime);
  };

  // Input changes are applied simultaneously at t = 0 and committed
  // directly (primary inputs have no driver gate and no inertia); a stuck
  // (overlaid) input ignores stimulus. The commit/fanout split mirrors the
  // reference: all input commits first, then the fanout walks in the same
  // net order.
  changedNets_.clear();
  changedMasks_.clear();
  for (std::size_t i = 0; i < d.inputNets.size(); ++i) {
    if (!d.inputLive[i]) continue;
    const std::uint32_t net = d.inputNets[i];
    const std::uint64_t nvW = inputWords_[i];
    const std::uint64_t cm = (stateW[net] ^ nvW) & activeMask_;
    if (cm == 0) continue;
    stateW[net] = (stateW[net] & ~cm) | (nvW & cm);
    CommitLanes& cl = commitLanes[net];
    if (cl.epoch != runEpoch_) cl = CommitLanes{runEpoch_, 0};
    cl.mask |= cm;
    double* lc = lastCommitPs + std::size_t(net) * kLanes;
    const std::uint64_t events = countFanout * (foOff[net + 1] - foOff[net]);
    onWave(net, 0.0, cm);
    for (std::uint64_t m = cm; m != 0; m &= m - 1) {
      const std::size_t l = static_cast<std::size_t>(ctz64(m));
      lc[l] = 0.0;
      ++inputCommitsL_[l];
      poppedL_[l] += events;
      onLane(l, net, 0.0, static_cast<std::uint8_t>((nvW >> l) & 1u), 1.0);
    }
    if (prof) {
      profTally_[net].committed += static_cast<std::uint32_t>(popcount64(cm));
    }
    changedNets_.push_back(net);
    changedMasks_.push_back(cm);
  }
  for (std::size_t c = 0; c < changedNets_.size(); ++c) {
    const std::uint32_t net = changedNets_[c];
    const std::uint64_t cm = changedMasks_[c];
    for (std::uint32_t e = foOff[net]; e < foOff[net + 1]; ++e) {
      scheduleGate(foEdge[e], 0.0, cm);
    }
  }

  while (eventsInQueue_ != 0) {
    const QueueEvent e = queuePop();
    ++waves_;
    const double eTime = bitsToTime(e.timeBits);
    // Keys pack (pushId << 25) | (net << 1).
    const std::uint32_t eNet =
        static_cast<std::uint32_t>(e.key >> 1) & 0xFFFFFFu;
    const std::uint64_t ePushId = e.key >> 25;

    if (prof) {
      ++profWaves_;
      ++profPoppedBins_[popcount64(e.mask)];
      const std::size_t w = std::min(
          static_cast<std::size_t>(eTime * profWindowInvPs_),
          static_cast<std::size_t>(obs::Profiler::kTimelineWindows - 1));
      ++profTlPops_[w];
      const std::uint64_t depth = eventsInQueue_ + 1;  // before this pop
      profTlDepthSum_[w] += depth;
      if (depth > profTlDepthMax_[w]) profTlDepthMax_[w] = depth;
      if (--profSampleLeft == 0) {
        profSampleLeft = obs::Profiler::kWallSampleEvery;
        const auto now = std::chrono::steady_clock::now();
        profTally_[eNet].timeNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - profLastSample)
                .count());
        profLastSample = now;
      }
    }

    // Armed watchdog: the reference's pop accounting per lane — the popped
    // counter, then the two watchdog checks — so per lane the tallies and
    // any SimDiverged payload are exactly what that lane's scalar run would
    // produce.
    if (watchdogArmed) {
      for (std::uint64_t m = e.mask; m != 0; m &= m - 1) {
        const std::size_t l = static_cast<std::size_t>(ctz64(m));
        ++poppedL_[l];
        if (opts_.maxEvents != 0 && poppedL_[l] > opts_.maxEvents) {
          diverge(static_cast<int>(l), eTime);
        }
        if (opts_.maxTimePs > 0.0 && eTime > opts_.maxTimePs) {
          diverge(static_cast<int>(l), eTime);
        }
      }
    }

    // Validity and no-op filtering, word-parallel. Inertial: a lane's wave
    // is live iff its pending slot still points at this wave's id; live
    // lanes clear their pending bit (before the no-op check, like the
    // reference). Then any lane whose committed state already equals the
    // scheduled value cancels.
    std::uint64_t commitM;
    if (!transport) {
      std::uint64_t liveM = 0;
      const std::uint64_t pend = pendMask_[eNet] & e.mask;
      const std::uint64_t* pendId =
          pendPushId_.data() + std::size_t(eNet) * kLanes;
      for (std::uint64_t m = pend; m != 0; m &= m - 1) {
        const int l = ctz64(m);
        if (pendId[l] == ePushId) liveM |= std::uint64_t(1) << l;
      }
      pendMask_[eNet] &= ~liveM;
      commitM = liveM & (stateW[eNet] ^ e.value);
    } else {
      commitM = e.mask & (stateW[eNet] ^ e.value);
    }
    if (prof) {
      // The 0-commit bin is part of the committed-lanes histogram: it is
      // what makes the mean-committed-per-wave figure honest.
      ++profCommittedBins_[popcount64(commitM)];
      if ((e.mask & ~commitM) != 0) {
        profTally_[eNet].cancelled +=
            static_cast<std::uint32_t>(popcount64(e.mask & ~commitM));
      }
    }
    if (commitM == 0) continue;

    stateW[eNet] = (stateW[eNet] & ~commitM) | (e.value & commitM);
    // Partial-swing weighting per lane, the reference expression shapes
    // verbatim (the gap is lane-local, the swing window design-global).
    // A lane outside the net's commit mask of this run has not committed
    // yet: gap >= swingPs for any reachable eTime, so weight stays 1.0 —
    // same result the -1e30 sentinel produced.
    const double swingPs = opts_.fullSwingFactor * delayArr[eNet];
    CommitLanes& cl = commitLanes[eNet];
    if (cl.epoch != runEpoch_) cl = CommitLanes{runEpoch_, 0};
    const std::uint64_t seen = cl.mask;
    cl.mask |= commitM;
    double* lc = lastCommitPs + std::size_t(eNet) * kLanes;
    const std::uint64_t events = countFanout * (foOff[eNet + 1] - foOff[eNet]);
    onWave(eNet, eTime, commitM);
    for (std::uint64_t m = commitM; m != 0; m &= m - 1) {
      const std::size_t l = static_cast<std::size_t>(ctz64(m));
      double weight = 1.0;
      if (swingPs > 0.0 && ((seen >> l) & 1u) != 0) {
        const double gap = eTime - lc[l];
        if (gap < swingPs) weight = gap / swingPs;
      }
      lc[l] = eTime;
      ++committedL_[l];
      poppedL_[l] += events;
      onLane(l, eNet, eTime, static_cast<std::uint8_t>((e.value >> l) & 1u),
             weight);
    }
    if (prof) {
      profTally_[eNet].committed +=
          static_cast<std::uint32_t>(popcount64(commitM));
    }
    for (std::uint32_t idx = foOff[eNet]; idx < foOff[eNet + 1]; ++idx) {
      scheduleGate(foEdge[idx], eTime, commitM);
    }
  }
  recordRun();
}

void BatchSim::run(const std::vector<std::vector<std::uint8_t>>& laneInputs) {
  for (std::uint32_t l = 0; l < activeLanes_; ++l) laneLog_[l].clear();
  runCore(
      laneInputs, [](std::uint32_t, double, std::uint64_t) {},
      [&](std::size_t l, std::uint32_t net, double time, std::uint8_t value,
          double weight) {
        laneLog_[l].push_back(Transition{time, net, value, weight});
      });
}

void BatchSim::runCounting(
    const std::vector<std::vector<std::uint8_t>>& laneInputs,
    std::vector<std::uint64_t>& toggles) {
  if (toggles.size() != design_->numGates) {
    throw std::invalid_argument("BatchSim: one toggle count per net required");
  }
  runCore(
      laneInputs,
      [&](std::uint32_t net, double, std::uint64_t commitM) {
        toggles[net] += popcount64(commitM);
      },
      [](std::size_t, std::uint32_t, double, std::uint8_t, double) {});
}

void BatchSim::runFused(
    const std::vector<std::vector<std::uint8_t>>& laneInputs,
    const std::vector<std::uint64_t>& noiseSeeds) {
  const CompiledDesign& d = *design_;
  if (noiseSeeds.size() != laneInputs.size()) {
    throw std::invalid_argument(
        "BatchSim: one noise seed per lane required");
  }
  // Deposition runs sample-major (all lanes of one bin contiguous), so the
  // lanes of a wave depositing into one bin share its cache lines; lane
  // traces are transposed out afterwards. Each wave computes its
  // pulse's bin fractions once (power_detail::forEachPulseBin, the helper
  // depositPulse runs), keeping the bins with a positive fraction, and
  // each committed lane then adds its energy times every kept fraction.
  // Per lane and bin, the accumulation order is the lane's commit order —
  // the scalar engines' order — and the FP expressions are the shared
  // power_detail ones, so each lane's trace is bit-identical to
  // PowerModel::sample over that lane's run.
  grid_.assign(std::size_t(d.numSamples) * kLanes, 0.0);
  laneTraces_.resize(std::size_t(d.numSamples) * kLanes);
  const double dt = d.samplePeriodPs;
  const double halfW = d.pulseHalfWidthPs;
  std::uint64_t deposited = 0;
  double e0 = 0.0;
  std::size_t bins = 0;
  runCore(
      laneInputs,
      [&](std::uint32_t net, double time, std::uint64_t commitM) {
        e0 = d.energyFf[net];
        bins = 0;
        int k0 = 0;
        int k1 = -1;
        if (!power_detail::pulseBinRange(d.numSamples, dt, halfW, time, k0,
                                         k1)) {
          return;
        }
        deposited += popcount64(commitM);  // pulse overlaps the window
        if (profThisRun_) {
          profTally_[net].pulses +=
              static_cast<std::uint32_t>(popcount64(commitM));
        }
        power_detail::forEachPulseBin(
            dt, halfW, time, k0, k1, [&](int k, double frac) {
              if (frac > 0.0) {
                binRow_[bins] = grid_.data() + std::size_t(k) * kLanes;
                binFrac_[bins] = frac;
                ++bins;
              }
            });
      },
      [&](std::size_t l, std::uint32_t, double, std::uint8_t,
          double weight) {
        const double energy = e0 * weight;
        for (std::size_t b = 0; b < bins; ++b) {
          binRow_[b][l] += energy * binFrac_[b];
        }
      });
  for (std::uint32_t l = 0; l < activeLanes_; ++l) {
    double* out = laneTraces_.data() + std::size_t(l) * d.numSamples;
    for (std::uint32_t k = 0; k < d.numSamples; ++k) {
      out[k] = grid_[std::size_t(k) * kLanes + l];
    }
    power_detail::addGaussianNoise(out, d.numSamples, d.noiseSigma,
                                   noiseSeeds[l]);
  }
  metrics_.tracesSampled.add(activeLanes_);
  metrics_.pulsesDeposited.add(deposited);
}

}  // namespace lpa
