#pragma once
// Event-driven combinational simulator with inertial delays.
//
// The simulator reproduces the *logical* glitch behaviour of a transistor-
// level netlist simulation: different arrival times at a gate's inputs cause
// transient output changes ("glitches"); pulses shorter than a gate's
// propagation delay are swallowed (inertial-delay model, the standard
// approximation of a CMOS stage's low-pass behaviour).
//
// Usage per trace (the paper's Fig. 5 protocol):
//   sim.settle(initialInputs);                  // steady state, no events
//   auto transitions = sim.run(finalInputs);    // timed transition list

#include <stdexcept>
#include <vector>

#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "sim/delay_model.h"
#include "sim/waveform.h"

namespace lpa::obs {
class Profiler;
}  // namespace lpa::obs

namespace lpa {

/// Cumulative instrumentation of one EventSim instance. Plain (non-atomic)
/// fields — only the owning thread writes them — padded to a cache line so
/// per-worker clones living side by side in a pool's vector never
/// false-share. Flushed to the attached MetricsRegistry in a handful of
/// relaxed adds per run() (never per event), which keeps the hot loop
/// overhead at a few local integer increments. Zero-perturbation: counting
/// reuses branches the simulator takes anyway and feeds nothing back.
struct alignas(64) SimStats {
  std::uint64_t runs = 0;                 ///< run() calls completed or thrown
  std::uint64_t eventsProcessed = 0;      ///< events popped from the queue
  std::uint64_t committedTransitions = 0; ///< value changes entering the log
  std::uint64_t cancelledEvents = 0;      ///< superseded/cancelled/no-op pops
  std::uint64_t inertialFiltered = 0;     ///< glitches swallowed at schedule
  std::uint64_t peakQueueDepth = 0;       ///< max in-flight events, any run
  /// Smallest remaining event budget (maxEvents - popped) observed at the
  /// end of a converging run; ~0ULL until a budgeted run completes. The
  /// fault campaign reads this as "how close to divergence did we get".
  std::uint64_t watchdogMinHeadroom = ~0ULL;
};

/// Structured divergence outcome of EventSim::run: the watchdog budget
/// (SimOptions::maxEvents / maxTimePs) was exhausted before quiescence.
/// A well-formed combinational netlist always quiesces; a fault-induced
/// feedback loop (bridging fault, buggy custom gadget) can oscillate
/// forever, and the watchdog turns that hang into this exception. After it
/// is thrown the simulator's dynamic state is mid-flight; call reset() or
/// settle() before reusing the instance.
class SimDiverged : public std::runtime_error {
 public:
  SimDiverged(std::uint64_t eventsProcessed, double simTimePs);

  /// Events popped from the queue before the budget fired.
  std::uint64_t eventsProcessed() const { return events_; }
  /// Simulated time (ps) of the event that tripped the watchdog.
  double simTimePs() const { return timePs_; }

 private:
  std::uint64_t events_;
  double timePs_;
};

enum class DelayKind {
  Inertial,   ///< short pulses swallowed (physical default)
  Transport,  ///< every scheduled change propagates (ablation mode)
};

struct SimOptions {
  DelayKind kind = DelayKind::Inertial;
  /// A pulse narrower than `fullSwingFactor * gateDelay` only partially
  /// swings the node: its trailing edge's energy weight is the width/delay
  /// ratio, clamped to 1. Set to 0 to give every edge full energy.
  double fullSwingFactor = 2.0;
  /// Watchdog: hard budget on events processed per run() call (0 =
  /// unlimited). Exceeding it throws SimDiverged instead of looping
  /// forever on an oscillating (faulted/cyclic) netlist. The check is one
  /// counter increment amortized against the queue pop, so the un-faulted
  /// hot path is unaffected; a converging run below the budget is
  /// bit-identical with the watchdog on or off.
  std::uint64_t maxEvents = 0;
  /// Watchdog on simulated time: an event scheduled past this horizon (ps)
  /// throws SimDiverged (0 = unlimited).
  double maxTimePs = 0.0;
};

class EventSim {
 public:
  EventSim(const Netlist& nl, const DelayModel& delays,
           DelayKind kind = DelayKind::Inertial);
  EventSim(const Netlist& nl, const DelayModel& delays,
           const SimOptions& options);

  /// Cheap copy for worker pools: the clone references the *same* netlist
  /// and DelayModel (per-instance process jitter is shared, not re-rolled —
  /// the workers simulate the same physical device) and starts from fresh
  /// dynamic state. The referenced models must outlive the clone and stay
  /// unmodified while any clone is running (they are read-only during
  /// simulation, so concurrent clones are safe).
  EventSim clone() const;

  /// Clears dynamic state (settled values, pending events, commit times),
  /// as if freshly constructed.
  void reset();

  /// Establishes a steady state with the given inputs (inputs() order).
  void settle(const std::vector<std::uint8_t>& inputValues);

  /// Applies new input values at t=0 and simulates until quiescence.
  /// Returns all committed transitions, time-ordered. The internal state is
  /// the settled final state afterwards.
  std::vector<Transition> run(const std::vector<std::uint8_t>& inputValues);

  /// Current committed value of a net.
  std::uint8_t value(NetId net) const { return state_[net]; }

  /// The design this simulator runs (exposed so acquire() can compile the
  /// fast-path tables for the same netlist/models, sim/compiled_design.h).
  const Netlist& netlist() const { return *nl_; }
  const DelayModel& delayModel() const { return *delays_; }
  const SimOptions& options() const { return opts_; }
  /// Registry attached via attachMetrics (nullptr when detached); the
  /// batch engine selected by acquire() inherits this attachment.
  obs::MetricsRegistry* metricsRegistry() const { return registry_; }

  /// Values of the primary outputs in outputs() order.
  std::vector<std::uint8_t> outputValues() const;

  /// Attaches this sim (and every future clone of it) to a metrics
  /// registry: per-run deltas of stats() flow into the "sim.*" counters and
  /// gauges. nullptr detaches. Clones inherit the attachment and aggregate
  /// into the *same* registry cells — safe because the cells are relaxed
  /// atomics padded to cache lines (obs/metrics.h), so parallel workers
  /// neither race nor false-share.
  void attachMetrics(obs::MetricsRegistry* registry);

  /// Attaches a cost-attribution profiler (obs/profiler.h): per-net
  /// scheduled/committed/cancelled/filtered tallies plus sampled wall-time
  /// flow into it, one flush per run (never per event). nullptr detaches.
  /// Clones inherit the attachment like attachMetrics, and acquisition
  /// hands it to the batch engine it builds, so a profiler attached to the
  /// prototype sees every engine that serves the call. The profiler is a
  /// pure sink — results are bit-identical attached or detached
  /// (tests/test_profiler.cpp).
  void attachProfiler(obs::Profiler* profiler);
  /// Profiler attached via attachProfiler (nullptr when detached).
  obs::Profiler* profiler() const { return profiler_; }

  /// This instance's cumulative instrumentation (clone-local; a clone
  /// starts from zero).
  const SimStats& stats() const { return stats_; }

 private:
  void recordRun(std::uint64_t popped, std::uint64_t committed,
                 std::uint64_t cancelled, std::uint64_t filtered,
                 std::uint64_t peakDepth);
  struct Pending {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint8_t value = 0;
    bool active = false;
  };

  const Netlist* nl_;
  const DelayModel* delays_;
  SimOptions opts_;
  std::vector<std::vector<NetId>> fanout_;  // per net: gates it feeds
  std::vector<std::uint8_t> state_;
  std::vector<Pending> pending_;
  std::vector<double> lastCommitPs_;
  std::uint64_t seqCounter_ = 0;

  SimStats stats_;
  obs::MetricsRegistry* registry_ = nullptr;
  struct MetricHandles {
    obs::Counter runs, events, committed, cancelled, inertialFiltered;
    obs::Gauge peakQueueDepth, watchdogMaxEventsUsed, watchdogBudget;
  } metrics_;

  // Cost-attribution profiling (obs/profiler.h). Per-run local tallies
  // plus a touched-net list, flushed by recordRun and zeroed touched-slot-
  // wise, so runs cost O(touched) and the hot loop stays atomic-free.
  void profTouch(NetId net) {
    if (!profTouchedFlag_[net]) {
      profTouchedFlag_[net] = 1;
      profTouched_.push_back(net);
    }
  }
  void profFlush();
  obs::Profiler* profiler_ = nullptr;
  std::vector<std::uint32_t> profSched_, profComm_, profCanc_, profFilt_;
  std::vector<std::uint64_t> profTimeNs_;
  std::vector<std::uint8_t> profTouchedFlag_;
  std::vector<NetId> profTouched_;
};

}  // namespace lpa
