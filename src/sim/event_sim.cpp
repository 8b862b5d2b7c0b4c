#include "sim/event_sim.h"

#include <algorithm>
#include <chrono>
#include <queue>
#include <stdexcept>
#include <string>

#include "obs/profiler.h"

namespace lpa {

namespace {

struct Event {
  double time;
  std::uint64_t seq;
  NetId net;
  std::uint8_t value;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

using EventQueue = std::priority_queue<Event, std::vector<Event>, EventLater>;

}  // namespace

SimDiverged::SimDiverged(std::uint64_t eventsProcessed, double simTimePs)
    : std::runtime_error("simulation diverged: watchdog budget exhausted "
                         "after " +
                         std::to_string(eventsProcessed) + " events at t=" +
                         std::to_string(simTimePs) + " ps"),
      events_(eventsProcessed),
      timePs_(simTimePs) {}

EventSim::EventSim(const Netlist& nl, const DelayModel& delays, DelayKind kind)
    : EventSim(nl, delays, SimOptions{kind, 2.0}) {}

EventSim::EventSim(const Netlist& nl, const DelayModel& delays,
                   const SimOptions& options)
    : nl_(&nl), delays_(&delays), opts_(options) {
  fanout_.resize(nl.numGates());
  for (NetId id = 0; id < nl.numGates(); ++id) {
    const Gate& g = nl.gate(id);
    for (int i = 0; i < g.numFanin; ++i) {
      fanout_[g.fanin[static_cast<std::size_t>(i)]].push_back(id);
    }
  }
  state_.assign(nl.numGates(), 0);
  pending_.assign(nl.numGates(), {});
  lastCommitPs_.assign(nl.numGates(), -1e30);
}

EventSim EventSim::clone() const {
  // Shares nl_/delays_ and *the metrics attachment* (same padded registry
  // cells, so per-worker clones aggregate into the parent's counters), but
  // starts from fresh dynamic state and zeroed clone-local stats.
  EventSim copy = *this;
  copy.reset();
  return copy;
}

void EventSim::reset() {
  std::fill(state_.begin(), state_.end(), 0);
  for (Pending& p : pending_) p.active = false;
  std::fill(lastCommitPs_.begin(), lastCommitPs_.end(), -1e30);
  seqCounter_ = 0;
  stats_ = SimStats{};
}

void EventSim::attachMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  if (!registry) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.runs = registry->counter("sim.runs");
  metrics_.events = registry->counter("sim.events_processed");
  metrics_.committed = registry->counter("sim.transitions_committed");
  metrics_.cancelled = registry->counter("sim.events_cancelled");
  metrics_.inertialFiltered =
      registry->counter("sim.glitches_inertial_filtered");
  metrics_.peakQueueDepth = registry->gauge("sim.peak_queue_depth");
  // Watchdog headroom is exported as its complement — the largest event
  // count any run needed — because a monotone max composes cleanly across
  // clones from the gauge's zero initial value. Readers recover
  // min headroom = sim.watchdog_budget - sim.watchdog_max_events_used.
  metrics_.watchdogMaxEventsUsed =
      registry->gauge("sim.watchdog_max_events_used");
  metrics_.watchdogBudget = registry->gauge("sim.watchdog_budget");
  if (opts_.maxEvents != 0) {
    metrics_.watchdogBudget.set(static_cast<double>(opts_.maxEvents));
  }
}

void EventSim::attachProfiler(obs::Profiler* profiler) {
  profiler_ = profiler;
  if (!profiler) {
    profSched_ = {};
    profComm_ = {};
    profCanc_ = {};
    profFilt_ = {};
    profTimeNs_ = {};
    profTouchedFlag_ = {};
    profTouched_ = {};
    return;
  }
  const std::size_t n = nl_->numGates();
  profiler->ensureNets(n);
  for (NetId id = 0; id < n; ++id) {
    profiler->noteNetLabel(id, std::string(gateTypeName(nl_->gate(id).type)));
  }
  profSched_.assign(n, 0);
  profComm_.assign(n, 0);
  profCanc_.assign(n, 0);
  profFilt_.assign(n, 0);
  profTimeNs_.assign(n, 0);
  profTouchedFlag_.assign(n, 0);
  profTouched_.clear();
}

void EventSim::profFlush() {
  profiler_->noteRun();
  for (const NetId net : profTouched_) {
    profiler_->addNetEvents(net, profSched_[net], profComm_[net],
                            profCanc_[net], profFilt_[net]);
    if (profTimeNs_[net] != 0) {
      profiler_->addNetTimeNs(net, profTimeNs_[net]);
      profTimeNs_[net] = 0;
    }
    profSched_[net] = 0;
    profComm_[net] = 0;
    profCanc_[net] = 0;
    profFilt_[net] = 0;
    profTouchedFlag_[net] = 0;
  }
  profTouched_.clear();
}

void EventSim::recordRun(std::uint64_t popped, std::uint64_t committed,
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
  metrics_.runs.add(1);
  metrics_.events.add(popped);
  metrics_.committed.add(committed);
  metrics_.cancelled.add(cancelled);
  metrics_.inertialFiltered.add(filtered);
  metrics_.peakQueueDepth.recordMax(static_cast<double>(peakDepth));
  if (opts_.maxEvents != 0) {
    metrics_.watchdogMaxEventsUsed.recordMax(static_cast<double>(popped));
  }
  if (profiler_) profFlush();
}

void EventSim::settle(const std::vector<std::uint8_t>& inputValues) {
  state_ = nl_->evaluate(inputValues);
  for (Pending& p : pending_) p.active = false;
}

std::vector<std::uint8_t> EventSim::outputValues() const {
  std::vector<std::uint8_t> out(nl_->outputs().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = state_[nl_->outputs()[i]];
  }
  return out;
}

std::vector<Transition> EventSim::run(
    const std::vector<std::uint8_t>& inputValues) {
  const std::vector<NetId>& ins = nl_->inputs();
  if (inputValues.size() != ins.size()) {
    throw std::invalid_argument("wrong number of input values");
  }

  EventQueue queue;

  // Per-run instrumentation tallies (plain locals: free to update, folded
  // into stats_/the registry once per run by recordRun).
  std::uint64_t committed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t inertialFiltered = 0;
  std::uint64_t peakDepth = 0;

  // Attribution profiling (opt-in; `prof` is loop-invariant so the branch
  // predicts perfectly when detached). Wall-time is charged by sampling:
  // one steady-clock read per kWallSampleEvery pops, the whole interval
  // attributed to the event then in hand.
  const bool prof = profiler_ != nullptr;
  std::uint32_t profSampleLeft = obs::Profiler::kWallSampleEvery;
  std::chrono::steady_clock::time_point profLastSample;
  if (prof) profLastSample = std::chrono::steady_clock::now();

  // Evaluates `gateId` against committed fanin values and, depending on the
  // delay model, schedules/updates/cancels its output event.
  auto scheduleGate = [&](NetId gateId, double now) {
    const Gate& g = nl_->gate(gateId);
    if (isSourceGate(g.type)) return;
    std::array<std::uint8_t, kMaxFanin> vals{};
    for (int i = 0; i < g.numFanin; ++i) {
      vals[static_cast<std::size_t>(i)] =
          state_[g.fanin[static_cast<std::size_t>(i)]];
    }
    const std::uint8_t nv = evalGate(g, vals);
    const double eta = now + delays_->delayPs(gateId);

    if (opts_.kind == DelayKind::Transport) {
      // Transport delay: every computed change is an independent in-flight
      // wavefront; no-op events are filtered at commit time.
      queue.push(Event{eta, ++seqCounter_, gateId, nv});
      if (prof) {
        profTouch(gateId);
        ++profSched_[gateId];
      }
      return;
    }

    // Inertial delay: at most one pending event per net.
    Pending& p = pending_[gateId];
    if (p.active) {
      if (p.value == nv) return;  // keep the earlier event, same destination
      if (nv == state_[gateId]) {
        // Input pulse shorter than the gate delay: swallow the glitch.
        p.active = false;
        ++inertialFiltered;
        if (prof) {
          profTouch(gateId);
          ++profFilt_[gateId];
        }
        return;
      }
      p.time = eta;
      p.value = nv;
      p.seq = ++seqCounter_;
      queue.push(Event{eta, p.seq, gateId, nv});
      if (prof) {
        profTouch(gateId);
        ++profSched_[gateId];
      }
      return;
    }
    if (nv != state_[gateId]) {
      p.time = eta;
      p.value = nv;
      p.active = true;
      p.seq = ++seqCounter_;
      queue.push(Event{eta, p.seq, gateId, nv});
      if (prof) {
        profTouch(gateId);
        ++profSched_[gateId];
      }
    }
  };

  // Input changes are applied simultaneously at t = 0. They are committed
  // directly (primary inputs have no driver gate and no inertia).
  std::fill(lastCommitPs_.begin(), lastCommitPs_.end(), -1e30);
  std::vector<Transition> log;
  std::vector<NetId> changedInputs;
  for (std::size_t i = 0; i < ins.size(); ++i) {
    // A faulted (stuck) primary input — its gate overlaid with a constant —
    // ignores stimulus.
    if (nl_->gate(ins[i]).type != GateType::Input) continue;
    const std::uint8_t nv = inputValues[i] & 1u;
    if (nv != state_[ins[i]]) {
      state_[ins[i]] = nv;
      lastCommitPs_[ins[i]] = 0.0;
      log.push_back(Transition{0.0, ins[i], nv, 1.0});
      ++committed;
      if (prof) {
        profTouch(ins[i]);
        ++profComm_[ins[i]];
      }
      changedInputs.push_back(ins[i]);
    }
  }
  for (NetId net : changedInputs) {
    for (NetId g : fanout_[net]) scheduleGate(g, 0.0);
  }

  std::uint64_t popped = 0;
  while (!queue.empty()) {
    if (queue.size() > peakDepth) peakDepth = queue.size();
    const Event e = queue.top();
    queue.pop();
    // Watchdog: amortized against the pop. One increment + predictable
    // branch per event; a quiescing run under budget behaves identically.
    ++popped;
    if (opts_.maxEvents != 0 && popped > opts_.maxEvents) {
      recordRun(popped, committed, cancelled, inertialFiltered, peakDepth);
      throw SimDiverged(popped, e.time);
    }
    if (opts_.maxTimePs > 0.0 && e.time > opts_.maxTimePs) {
      recordRun(popped, committed, cancelled, inertialFiltered, peakDepth);
      throw SimDiverged(popped, e.time);
    }
    if (prof && --profSampleLeft == 0) {
      profSampleLeft = obs::Profiler::kWallSampleEvery;
      const auto now = std::chrono::steady_clock::now();
      profTouch(e.net);
      profTimeNs_[e.net] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - profLastSample)
              .count());
      profLastSample = now;
    }
    if (opts_.kind == DelayKind::Inertial) {
      Pending& p = pending_[e.net];
      if (!p.active || p.seq != e.seq) {
        ++cancelled;  // cancelled or superseded
        if (prof) {
          profTouch(e.net);
          ++profCanc_[e.net];
        }
        continue;
      }
      p.active = false;
    }
    if (state_[e.net] == e.value) {
      ++cancelled;  // no-op wavefront (transport mode)
      if (prof) {
        profTouch(e.net);
        ++profCanc_[e.net];
      }
      continue;
    }
    state_[e.net] = e.value;
    // Partial-swing weighting: an edge following the previous edge of the
    // same net within the full-swing window carries proportionally less
    // charge (the node never completed its excursion).
    double weight = 1.0;
    const double swingPs = opts_.fullSwingFactor * delays_->delayPs(e.net);
    if (swingPs > 0.0) {
      const double gap = e.time - lastCommitPs_[e.net];
      if (gap < swingPs) weight = gap / swingPs;
    }
    lastCommitPs_[e.net] = e.time;
    log.push_back(Transition{e.time, e.net, e.value, weight});
    ++committed;
    if (prof) {
      profTouch(e.net);
      ++profComm_[e.net];
    }
    for (NetId g : fanout_[e.net]) scheduleGate(g, e.time);
  }
  recordRun(popped, committed, cancelled, inertialFiltered, peakDepth);
  return log;
}

}  // namespace lpa
