#pragma once
// Opt-in cost-attribution profiler for the simulation engines (DESIGN.md
// §13). Answers "which nets, gates, and sim-time windows dominate event
// traffic?", and measures the batch engine's lane occupancy. Census on
// the GLUT workload of `bench_acquire_scaling 64 --profile` (Release, 25
// runs): 1.47-1.50 of 64 lanes popped per wave, zero-commit waves
// included, and as many committed: with transport delays and no watchdog
// the engine drops no-ops at push, so every popped lane commits.
//
// Contract: zero perturbation. A Profiler is a pure sink — it never feeds
// a value back into simulation, never touches a PRNG stream, and all
// trace/leakage digests are bit-identical with the profiler attached or
// detached (enforced by tests/test_profiler.cpp on both acquisition
// engines).
//
// Overhead discipline (the CI obs-smoke job gates attachment at
// ≤5%): engines never touch the shared atomics from their hot loops.
// Each engine keeps per-run *local* plain tallies and flushes once per
// run from recordRun(). The reference engine tallies every event exactly.
// The batch engine's pop loop is tight enough that even a few
// unconditional tally instructions per wave measure ~10-15%, so it
// profiles every kRunSampleStride-th lane group of a call exactly — zero
// instructions in the runs it skips — and flushes those runs' tallies
// unscaled. Every additive count (per-net tallies, waves, histogram bins,
// timeline pops) therefore covers the `profiled_runs` runs only, out of
// `runs`; means, ratios and histogram shapes estimate the whole workload.
// (A call of G groups profiles ceil(G / kRunSampleStride) of them, so no
// fixed factor scales its counts back exactly.) Wall-time is attributed
// by bucketed sampling: every kWallSampleEvery pops the engine reads the
// steady clock once and charges the whole inter-sample interval to the
// net whose event is in hand — standard sampling-profiler accounting,
// ~0.4% clock-read duty at the default period.
//
// Threading: the shared arrays are plain relaxed atomics, so any number
// of worker clones may flush into one Profiler concurrently. Sizing
// (ensureNets / noteNetLabel / configureTimeline) happens at attach time
// and must not race in-flight runs — attach before spawning workers, the
// same rule attachMetrics follows.
//
// What is collected:
//   (a) per-net tallies — events scheduled / committed / cancelled /
//       glitch-filtered, pulses deposited, sampled wall-time — with top-K
//       extraction into the report;
//   (b) batch-engine lane-occupancy histograms (popped/committed lanes
//       per wave, the 0-commit bin included) and a calendar-queue depth
//       timeline bucketed by sim-time window;
//   (c) per-phase hardware counters (obs/hw_counters.h feeds these);
//   (d) arena byte counts for the batch engine's reuse arenas, sampled
//       every few hundred runs.
//
// toJson() renders the "lpa-profile/1" block that RunReport schema
// lpa-run-report/4 embeds under "profile" and tools/lpa_profile.py turns
// into the standalone HTML report.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/hw_counters.h"
#include "obs/json.h"

namespace lpa::obs {

class Profiler {
 public:
  /// Lanes-per-wave histogram bins: 0..64 inclusive (BatchSim::kLanes).
  static constexpr std::uint32_t kOccupancyBins = 65;
  /// Calendar-queue depth timeline resolution (windows over the horizon).
  static constexpr std::uint32_t kTimelineWindows = 64;
  /// Engines read the steady clock once per this many pops and charge the
  /// interval to the current event's net.
  static constexpr std::uint32_t kWallSampleEvery = 256;
  /// The batch engine profiles every this-many-th lane group of a call
  /// (the first one included) exactly; its counts cover those runs only
  /// (see the header comment). Coprime to the 16-class dataset cycle on
  /// purpose: a power-of-two stride would alias onto a fixed subset of
  /// classes.
  static constexpr std::uint32_t kRunSampleStride = 5;
  /// Engines sample arena byte counts once per this many runs.
  static constexpr std::uint32_t kArenaSampleEvery = 64;

  static const char* schemaId() { return "lpa-profile/1"; }

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Grows the per-net cells to at least `numNets` (attach-time only; must
  /// not race in-flight runs that flush into this profiler).
  void ensureNets(std::size_t numNets);
  std::size_t numNets() const {
    return netCount_.load(std::memory_order_acquire);
  }

  /// Attaches a display label (cell name) to a net; first writer wins so
  /// every engine may re-announce the same design.
  void noteNetLabel(std::uint32_t net, std::string label);

  /// Sim-time width of one timeline window (BatchSim sets it from its
  /// calendar horizon at attach time; last writer wins).
  void configureTimeline(double windowPs);

  /// Records the run-sampling stride the batch engine used (attach-time
  /// metadata, emitted with the lane-occupancy block; last writer wins).
  void noteRunStride(std::uint32_t stride) {
    runStride_.store(stride, std::memory_order_relaxed);
  }

  // --- flush sinks (relaxed atomics; called once per run per engine) ---

  void addNetEvents(std::uint32_t net, std::uint64_t scheduled,
                    std::uint64_t committed, std::uint64_t cancelled,
                    std::uint64_t filtered);
  void addNetPulses(std::uint32_t net, std::uint64_t pulses);
  void addNetTimeNs(std::uint32_t net, std::uint64_t ns);
  /// Counts one engine run; `profiled` when its tallies are flushed too.
  void noteRun(bool profiled = true);
  /// Folds one run's lanes-per-wave histograms (kOccupancyBins entries
  /// each) plus the wave count into the shared tallies.
  void addOccupancy(const std::uint64_t* poppedBins,
                    const std::uint64_t* committedBins, std::uint64_t waves);
  /// Folds one run's queue-depth timeline (kTimelineWindows entries each).
  void addTimeline(const std::uint64_t* pops, const std::uint64_t* depthSum,
                   const std::uint64_t* depthMax);
  /// Records an arena's byte count (per-name running max, under mutex —
  /// engines sample this once per kArenaSampleEvery runs, not per run).
  void recordArena(const std::string& name, std::uint64_t bytes);
  /// Appends one phase's hardware-counter sample (obs/hw_counters.h).
  void addPhaseCounters(const std::string& phase, const HwSample& sample);

  // --- read side (for benches/tests; relaxed reads) ---

  std::uint64_t runs() const { return runs_.load(std::memory_order_relaxed); }
  /// Runs whose tallies reached this profiler: the runs every additive
  /// count covers.
  std::uint64_t profiledRuns() const {
    return profiledRuns_.load(std::memory_order_relaxed);
  }
  std::uint64_t waves() const {
    return waves_.load(std::memory_order_relaxed);
  }
  /// Mean lanes popped per batch wave (0 when no batch engine ran).
  double meanPoppedLanes() const;
  /// Mean lanes committed per batch wave, 0-commit waves included.
  double meanCommittedLanes() const;
  std::uint64_t totalScheduled() const;
  std::uint64_t totalPulses() const;

  /// The "lpa-profile/1" block: top-K net rows (sorted by scheduled events,
  /// the cost proxy), totals, lane occupancy, queue-depth timeline,
  /// hardware counters and arena accounting.
  Json toJson(std::size_t topK = 20) const;

  /// Clears every tally (labels and sizing survive).
  void reset();

 private:
  // One cell per net. Unpadded on purpose: flushes happen once per run,
  // not per event, so false sharing is amortized into noise.
  struct NetCell {
    std::atomic<std::uint64_t> scheduled{0};
    std::atomic<std::uint64_t> committed{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> filtered{0};
    std::atomic<std::uint64_t> pulses{0};
    std::atomic<std::uint64_t> timeNs{0};
  };

  mutable std::mutex mu_;  // labels, arenas, hw phases, growth — cold paths
  std::deque<NetCell> nets_;  // deque: grows without relocating live cells
  std::atomic<std::size_t> netCount_{0};
  std::vector<std::string> labels_;  // under mu_
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> profiledRuns_{0};
  std::atomic<std::uint64_t> waves_{0};
  std::atomic<std::uint64_t> poppedBins_[kOccupancyBins] = {};
  std::atomic<std::uint64_t> committedBins_[kOccupancyBins] = {};
  std::atomic<std::uint64_t> tlPops_[kTimelineWindows] = {};
  std::atomic<std::uint64_t> tlDepthSum_[kTimelineWindows] = {};
  std::atomic<std::uint64_t> tlDepthMax_[kTimelineWindows] = {};
  std::atomic<double> timelineWindowPs_{0.0};
  std::atomic<std::uint32_t> runStride_{1};
  std::vector<std::pair<std::string, std::uint64_t>> arenas_;  // under mu_
  Json hwPhases_ = Json::array();                              // under mu_
};

}  // namespace lpa::obs
