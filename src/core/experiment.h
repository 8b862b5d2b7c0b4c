#pragma once
// End-to-end experiment pipeline: netlist -> stress profile -> aging ->
// trace acquisition -> spectral leakage analysis. This is what every bench
// binary drives; benches only differ in which slice of the result they
// print.

#include <memory>

#include "aging/aging_model.h"
#include "core/leakage.h"
#include "jobs/resilient.h"
#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/delay_model.h"
#include "sim/event_sim.h"
#include "stats/adaptive.h"
#include "trace/acquisition.h"

namespace lpa {

struct ExperimentConfig {
  /// `acquisition.numThreads` is the parallelism knob: 0 = hardware
  /// concurrency, 1 = the sequential loop; every value yields bit-identical
  /// traces (see the determinism contract in trace/acquisition.h).
  AcquisitionConfig acquisition;
  PowerOptions power;
  DelayOptions delay;
  AgingParams aging;
  SimOptions sim;
  std::uint32_t stressCycles = 512;       ///< cycles for duty/toggle profile
  std::uint64_t stressSeed = 0x57E55ULL;
  /// Attach the simulator and power model to obs::MetricsRegistry::global()
  /// (sim.* / power.* counters). A pure sink: results are bit-identical
  /// with observation on or off (zero-perturbation, obs/metrics.h); set
  /// false to skip even the relaxed-atomic counting.
  bool observe = true;

  /// The defaults below are the calibrated operating point that reproduces
  /// the paper's leakage ordering (see DESIGN.md section 5 and
  /// EXPERIMENTS.md): transport delays with partial-swing energy weighting
  /// model the analog reality that narrow glitch pulses propagate with
  /// attenuated swing; 6% process jitter supplies the arrival-time races
  /// that make glitches data-dependent.
  ExperimentConfig() {
    delay.jitterSigma = 0.06;
    power.inputCapFf = 0.6;
    sim.kind = DelayKind::Transport;
    sim.fullSwingFactor = 4.5;
  }
};

/// Owns one implementation and all models needed to run the paper's
/// measurement campaign on it at any device age.
class SboxExperiment {
 public:
  explicit SboxExperiment(SboxStyle style, const ExperimentConfig& cfg = {});

  const MaskedSbox& sbox() const { return *sbox_; }
  const ExperimentConfig& config() const { return cfg_; }

  /// Field-stress profile (random operation), computed once and cached.
  /// Runs on `acquisition.numThreads` workers; the profile is bit-identical
  /// for every thread count, and equal to one simulator running the
  /// `stressCycles` + 1 encodings of `stressSeed` in turn. A failing cycle
  /// throws a WorkerError naming it, with the original exception nested.
  const StressProfile& stressProfile();

  /// Collects the paper's 1024-trace balanced dataset with the device aged
  /// by `months` (0 = fresh). Runs on `acquisition.numThreads` workers;
  /// the result is bit-identical for every thread count.
  TraceSet acquireAt(double months);

  /// Re-points the parallelism knob without rebuilding netlists or models
  /// (lets benches sweep thread counts on one device instance).
  void setNumThreads(std::uint32_t n) { cfg_.acquisition.numThreads = n; }

  /// Convergence-gated acquisition at `months` (stats/adaptive.h): batches
  /// of `acquisition.batchSize` traces until the total-leakage CI meets
  /// `acquisition.targetCiRel` or `acquisition.maxTraces` is reached.
  /// Returns the traces together with the final interval estimate and the
  /// per-batch convergence history. Runs resilientAcquireAt's group loop
  /// with durability off (no checkpoint, no retry, no spot-checks,
  /// `acquisition.deadlineMs` ignored): one acquisition call streams the
  /// batch-major protocol (acquireBatches) and ends when the rule fires.
  stats::AdaptiveResult adaptiveAcquireAt(
      double months, const stats::StreamingLeakage::Options& statsOpt = {});

  /// Durable acquisition at `months` (jobs/resilient.h): checkpoint/
  /// resume, deadline-bounded execution, per-group retry and engine
  /// quarantine, honoring `acquisition.{adaptive, deadlineMs, trapBudget}`.
  /// The checkpoint fingerprint folds the aged delay and power model, so
  /// runs at different ages can never cross-resume from one checkpoint
  /// file.
  jobs::ResilientResult resilientAcquireAt(double months,
                                           const jobs::JobConfig& job = {});

  /// Acquire + streaming interval estimate in one step — the estimate's
  /// point values (total, single-bit, multi-bit, ratio) are bit-identical
  /// to those of SpectralAnalysis(acquireAt(months), mode). Holds no
  /// traces: each one is folded as acquisition delivers it. Per-sample
  /// waves need the traces: build SpectralAnalysis over acquireAt().
  stats::LeakageEstimate estimateAt(
      double months, EstimatorMode mode = EstimatorMode::Debiased);

  /// Per-gate aging factors at `months` (exposed for inspection/benches).
  AgingFactors agingFactorsAt(double months);

  /// Attaches a cost-attribution profiler (obs/profiler.h) to every layer
  /// this experiment drives: the prototype EventSim, whose attachment
  /// reaches whichever engine serves an acquisition and its worker clones,
  /// and the power model's reference sampling path. nullptr detaches both.
  /// Pure sink — acquireAt/estimateAt results are bit-identical with or
  /// without (tests/test_profiler.cpp).
  void attachProfiler(obs::Profiler* profiler);

 private:
  void applyAge(double months);

  ExperimentConfig cfg_;
  std::unique_ptr<MaskedSbox> sbox_;
  DelayModel delays_;
  PowerModel power_;
  EventSim sim_;
  std::unique_ptr<StressProfile> stress_;
};

}  // namespace lpa
