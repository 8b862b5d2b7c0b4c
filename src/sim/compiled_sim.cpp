#include "sim/compiled_sim.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace lpa {

namespace {

/// IEEE-754 pattern of a non-negative double; unsigned comparison of the
/// patterns equals numeric comparison (sign bit clear, biased exponent and
/// mantissa in descending significance). Every queued arrival time is
/// non-negative: eta = now + delay with now >= 0 and positive delays.
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

/// Branchless gate evaluation: gather the four fanin states (unused slots
/// alias slot 0) and index the gate's truth table. Boolean results are
/// identical to evalGate by the table's exhaustive construction
/// (sim/compiled_design.cpp).
inline std::uint8_t evalTable(const std::uint32_t* fan, std::uint16_t tt,
                              const std::uint8_t* state) {
  const unsigned idx = static_cast<unsigned>(state[fan[0]]) |
                       static_cast<unsigned>(state[fan[1]]) << 1 |
                       static_cast<unsigned>(state[fan[2]]) << 2 |
                       static_cast<unsigned>(state[fan[3]]) << 3;
  return static_cast<std::uint8_t>((tt >> idx) & 1u);
}

}  // namespace

CompiledSim::CompiledSim(const CompiledDesign& design,
                         const SimOptions& options)
    : design_(&design), opts_(options) {
  if (design.numGates >= (1u << 24)) {
    throw std::invalid_argument(
        "CompiledSim: design exceeds the packed-event net capacity (2^24 "
        "gates); use the reference EventSim engine");
  }
  state_.assign(design.numGates, 0);
  pendSeq_.assign(design.numGates, 0);
  pendValue_.assign(design.numGates, 0);
  pendActive_.assign(design.numGates, 0);
  lastCommitPs_.assign(design.numGates, -1e30);
}

void CompiledSim::reset() {
  std::fill(state_.begin(), state_.end(), 0);
  std::fill(pendActive_.begin(), pendActive_.end(), 0);
  std::fill(lastCommitPs_.begin(), lastCommitPs_.end(), -1e30);
  scrubQueue();
  seqCounter_ = 0;
  stats_ = SimStats{};
}

/// Returns the calendar to the all-clean state (every bucket empty, heads
/// and sorted flags zero, cursor rewound). Called on reset and before a
/// divergence throw; completed runs self-clean in the hot loop instead.
void CompiledSim::scrubQueue() {
  for (std::uint32_t b : dirtyBuckets_) {
    buckets_[b].clear();
    bucketHead_[b] = 0;
    bucketSorted_[b] = 0;
  }
  dirtyBuckets_.clear();
  bucketCursor_ = 0;
  eventsInQueue_ = 0;
}

void CompiledSim::recordRun(std::uint64_t popped, std::uint64_t committed,
                            std::uint64_t cancelled, std::uint64_t filtered,
                            std::uint64_t peakDepth) {
  stats_.runs += 1;
  stats_.eventsProcessed += popped;
  stats_.committedTransitions += committed;
  stats_.cancelledEvents += cancelled;
  stats_.inertialFiltered += filtered;
  if (peakDepth > stats_.peakQueueDepth) stats_.peakQueueDepth = peakDepth;
  if (opts_.maxEvents != 0 && popped <= opts_.maxEvents) {
    const std::uint64_t headroom = opts_.maxEvents - popped;
    if (headroom < stats_.watchdogMinHeadroom) {
      stats_.watchdogMinHeadroom = headroom;
    }
  }
}

void CompiledSim::settle(const std::vector<std::uint8_t>& inputValues) {
  const CompiledDesign& d = *design_;
  if (inputValues.size() != d.inputNets.size()) {
    throw std::invalid_argument("wrong number of input values");
  }
  // Flat twin of Netlist::evaluate: assign inputs, then one pass in index
  // (== topological) order. In-place over the state arena — the reference
  // settle allocates a fresh value vector per call. No type branch: Input
  // gates carry an identity truth table over their own state, so blanket
  // re-evaluation is a no-op for them.
  std::fill(state_.begin(), state_.end(), 0);
  for (std::size_t i = 0; i < d.inputNets.size(); ++i) {
    state_[d.inputNets[i]] = inputValues[i] & 1u;
  }
  const std::uint32_t* faninArr = d.fanin.data();
  const std::uint16_t* ttArr = d.truthTable.data();
  std::uint8_t* state = state_.data();
  for (std::uint32_t id = 0; id < d.numGates; ++id) {
    state[id] = evalTable(faninArr + std::size_t(id) * kMaxFanin, ttArr[id],
                          state);
  }
  std::fill(pendActive_.begin(), pendActive_.end(), 0);
}

std::vector<std::uint8_t> CompiledSim::outputValues() const {
  const CompiledDesign& d = *design_;
  std::vector<std::uint8_t> out(d.outputNets.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = state_[d.outputNets[i]];
  }
  return out;
}

void CompiledSim::queuePush(double time, std::uint64_t key) {
  std::size_t idx = static_cast<std::size_t>(time * (1.0 / kBucketWidthPs));
  if (idx >= kMaxBuckets) idx = kMaxBuckets - 1;  // open-ended last bucket
  if (idx >= buckets_.size()) {
    const std::size_t grow = std::max(idx + 1, buckets_.size() * 2);
    buckets_.resize(std::min(grow, kMaxBuckets));
    bucketHead_.resize(buckets_.size(), 0);
    bucketSorted_.resize(buckets_.size(), 0);
  }
  std::vector<QueueEvent>& b = buckets_[idx];
  if (b.empty()) dirtyBuckets_.push_back(static_cast<std::uint32_t>(idx));
  const QueueEvent e{timeToBits(time), key};
  b.push_back(e);
  if (bucketSorted_[idx]) {
    // Rare: an arrival into the bucket currently being drained (a delay
    // shorter than the bucket width). Sorted insert into the unpopped
    // tail; entries before bucketHead_ are already popped and stay put.
    const std::size_t head = bucketHead_[idx];
    std::size_t j = b.size() - 1;
    while (j > head &&
           (e.timeBits < b[j - 1].timeBits ||
            (e.timeBits == b[j - 1].timeBits && e.key < b[j - 1].key))) {
      b[j] = b[j - 1];
      --j;
    }
    b[j] = e;
  }
  ++eventsInQueue_;
}

CompiledSim::QueueEvent CompiledSim::queuePop() {
  // Caller guarantees eventsInQueue_ > 0. The cursor is monotone: arrivals
  // satisfy eta >= now, so no event is ever inserted into a bucket behind
  // it. Exhausted buckets are scrubbed as the cursor leaves them (their
  // lines are hot right here), which keeps the next run's setup O(1)
  // instead of a full dirty-bucket sweep.
  for (;;) {
    std::vector<QueueEvent>& b = buckets_[bucketCursor_];
    std::uint32_t& head = bucketHead_[bucketCursor_];
    if (head < b.size()) {
      if (!bucketSorted_[bucketCursor_]) {
        std::sort(b.begin(), b.end(),
                  [](const QueueEvent& a, const QueueEvent& c) {
                    if (a.timeBits != c.timeBits)
                      return a.timeBits < c.timeBits;
                    return a.key < c.key;
                  });
        bucketSorted_[bucketCursor_] = 1;
      }
      --eventsInQueue_;
      return b[head++];
    }
    if (head != 0) {  // drained bucket (head == size != 0): scrub it
      b.clear();
      head = 0;
      bucketSorted_[bucketCursor_] = 0;
    }
    ++bucketCursor_;
  }
}

template <typename CommitSink>
void CompiledSim::runCore(const std::vector<std::uint8_t>& inputValues,
                          CommitSink&& commit) {
  const CompiledDesign& d = *design_;
  if (inputValues.size() != d.inputNets.size()) {
    throw std::invalid_argument("wrong number of input values");
  }

  // Every exit path leaves the calendar scrubbed — queuePop cleans buckets
  // as the cursor leaves them, the tail bucket is cleaned after the loop
  // below, and the divergence throws sweep the dirty list first — so the
  // per-run rewind is O(1).
  dirtyBuckets_.clear();
  bucketCursor_ = 0;
  eventsInQueue_ = 0;
  // The sequence number only breaks ties *within* one run (the queue is
  // empty and every pending inactive at quiescence), so rebasing it per run
  // is order-identical to the reference's monotone counter and keeps it
  // far inside the 39 packed bits.
  seqCounter_ = 0;

  std::uint64_t committed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t inertialFiltered = 0;
  std::uint64_t peakDepth = 0;

  // Hot-table pointers hoisted out of the event loop.
  const std::uint8_t* typeArr = d.type.data();
  const std::uint32_t* faninArr = d.fanin.data();
  const std::uint16_t* ttArr = d.truthTable.data();
  const std::uint32_t* foOff = d.fanoutOffsets.data();
  const std::uint32_t* foEdge = d.fanoutEdges.data();
  const double* delayArr = d.delayPs.data();
  std::uint8_t* state = state_.data();

  // Evaluates `gateId` against committed fanin values and, depending on
  // the delay model, schedules/updates/cancels its output event — the
  // exact branch structure of EventSim::run's scheduleGate.
  const auto scheduleGate = [&](std::uint32_t gateId, double now) {
    if (isSourceGate(static_cast<GateType>(typeArr[gateId]))) return;
    const std::uint8_t nv = evalTable(
        faninArr + std::size_t(gateId) * kMaxFanin, ttArr[gateId], state);
    const double eta = now + delayArr[gateId];

    if (opts_.kind == DelayKind::Transport) {
      // Transport delay: every computed change is an independent in-flight
      // wavefront; no-op events are filtered at commit time.
      queuePush(eta, (++seqCounter_ << 25) | (std::uint64_t(gateId) << 1) |
                         nv);
      return;
    }

    // Inertial delay: at most one pending event per net.
    if (pendActive_[gateId]) {
      if (pendValue_[gateId] == nv) return;  // earlier event, same value
      if (nv == state[gateId]) {
        // Input pulse shorter than the gate delay: swallow the glitch.
        pendActive_[gateId] = 0;
        ++inertialFiltered;
        return;
      }
      pendValue_[gateId] = nv;
      pendSeq_[gateId] = ++seqCounter_;
      queuePush(eta, (pendSeq_[gateId] << 25) |
                         (std::uint64_t(gateId) << 1) | nv);
      return;
    }
    if (nv != state[gateId]) {
      pendValue_[gateId] = nv;
      pendActive_[gateId] = 1;
      pendSeq_[gateId] = ++seqCounter_;
      queuePush(eta, (pendSeq_[gateId] << 25) |
                         (std::uint64_t(gateId) << 1) | nv);
    }
  };

  // Input changes are applied simultaneously at t = 0 and committed
  // directly (primary inputs have no driver gate and no inertia); a
  // stuck (overlaid) input ignores stimulus.
  std::fill(lastCommitPs_.begin(), lastCommitPs_.end(), -1e30);
  changedInputs_.clear();
  for (std::size_t i = 0; i < d.inputNets.size(); ++i) {
    if (!d.inputLive[i]) continue;
    const std::uint32_t net = d.inputNets[i];
    const std::uint8_t nv = inputValues[i] & 1u;
    if (nv != state[net]) {
      state[net] = nv;
      lastCommitPs_[net] = 0.0;
      commit(net, 0.0, nv, 1.0);
      ++committed;
      changedInputs_.push_back(net);
    }
  }
  for (std::uint32_t net : changedInputs_) {
    for (std::uint32_t e = foOff[net]; e < foOff[net + 1]; ++e) {
      scheduleGate(foEdge[e], 0.0);
    }
  }

  std::uint64_t popped = 0;
  while (eventsInQueue_ != 0) {
    if (eventsInQueue_ > peakDepth) peakDepth = eventsInQueue_;
    const QueueEvent e = queuePop();
    const double eTime = bitsToTime(e.timeBits);
    const std::uint32_t eNet =
        static_cast<std::uint32_t>(e.key >> 1) & 0xFFFFFFu;
    const std::uint8_t eValue = static_cast<std::uint8_t>(e.key & 1u);
    ++popped;
    if (opts_.maxEvents != 0 && popped > opts_.maxEvents) {
      scrubQueue();
      recordRun(popped, committed, cancelled, inertialFiltered, peakDepth);
      throw SimDiverged(popped, eTime);
    }
    if (opts_.maxTimePs > 0.0 && eTime > opts_.maxTimePs) {
      scrubQueue();
      recordRun(popped, committed, cancelled, inertialFiltered, peakDepth);
      throw SimDiverged(popped, eTime);
    }
    if (opts_.kind == DelayKind::Inertial) {
      if (!pendActive_[eNet] || pendSeq_[eNet] != (e.key >> 25)) {
        ++cancelled;  // cancelled or superseded
        continue;
      }
      pendActive_[eNet] = 0;
    }
    if (state[eNet] == eValue) {
      ++cancelled;  // no-op wavefront (transport mode)
      continue;
    }
    state[eNet] = eValue;
    // Partial-swing weighting, the reference expression shapes verbatim.
    double weight = 1.0;
    const double swingPs = opts_.fullSwingFactor * delayArr[eNet];
    if (swingPs > 0.0) {
      const double gap = eTime - lastCommitPs_[eNet];
      if (gap < swingPs) weight = gap / swingPs;
    }
    lastCommitPs_[eNet] = eTime;
    commit(eNet, eTime, eValue, weight);
    ++committed;
    for (std::uint32_t idx = foOff[eNet]; idx < foOff[eNet + 1]; ++idx) {
      scheduleGate(foEdge[idx], eTime);
    }
  }
  // Scrub the tail bucket (the cursor never advanced past it) so the whole
  // calendar is clean for the next run's O(1) setup.
  if (bucketCursor_ < buckets_.size() && bucketHead_[bucketCursor_] != 0) {
    buckets_[bucketCursor_].clear();
    bucketHead_[bucketCursor_] = 0;
    bucketSorted_[bucketCursor_] = 0;
  }
  recordRun(popped, committed, cancelled, inertialFiltered, peakDepth);
}

std::vector<Transition> CompiledSim::run(
    const std::vector<std::uint8_t>& inputValues) {
  std::vector<Transition> log;
  runCore(inputValues, [&](std::uint32_t net, double time, std::uint8_t value,
                           double weight) {
    log.push_back(Transition{time, net, value, weight});
  });
  return log;
}

const std::vector<double>& CompiledSim::runFused(
    const std::vector<std::uint8_t>& inputValues, std::uint64_t noiseSeed) {
  const CompiledDesign& d = *design_;
  trace_.assign(d.numSamples, 0.0);
  const double dt = d.samplePeriodPs;
  const double halfW = d.pulseHalfWidthPs;
  runCore(inputValues, [&](std::uint32_t net, double time, std::uint8_t,
                           double weight) {
    power_detail::depositPulse(trace_.data(), d.numSamples, dt, halfW, time,
                               d.energyFf[net] * weight);
  });
  power_detail::addGaussianNoise(trace_.data(), d.numSamples, d.noiseSigma,
                                 noiseSeed);
  return trace_;
}

}  // namespace lpa
