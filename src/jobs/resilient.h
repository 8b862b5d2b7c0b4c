#pragma once
// Durable acquisition: checkpoint/resume, deadlines, retry, quarantine
// (DESIGN.md §12).
//
// `resilientAcquire` runs the ordinary acquisition protocol — fixed
// schedule or convergence-gated — group by group, appending each committed
// group to a crash-safe checkpoint (jobs/checkpoint.h), so a long campaign
// survives SIGKILL, node preemption, and transient worker failures
// without losing committed work or its determinism guarantees. It is the
// one adaptive loop: convergence-gated acquisition is its stop rule
// (cfg.adaptive), and SboxExperiment::adaptiveAcquireAt is this loop run
// with durability off.
//
// ## Resume invariant
//
// Group g of a fixed run is the schedule slice
// [g*groupTraces, ...) collected by acquireRange(); group g of an
// adaptive run is batch g under the adaptive substream
// deriveStreamSeed(deriveStreamSeed(seed, kAdaptiveBatchStream), g) — in
// both cases a pure function of (seed, g), never of wall clock, engine,
// thread count, or earlier groups. A group's traces reach the result and
// the estimator as the pool delivers them; a discarded group (failed
// attempt, deadline, spot-check repair) is truncated away and the
// estimator re-folded from the committed traces — bit-identical, as the
// fold is a pure function of the traces in index order. A resumed run
// re-folds the checkpoint's traces the same way. Hence a resumed
// run's final TraceSet, leakage estimate, and determinism digest are
// bit-identical to the uninterrupted run's, for any interleaving of
// kills, engines, and thread counts across sessions. The config
// fingerprint stored in the checkpoint deliberately EXCLUDES engine and
// thread count — resuming a Batch-engine run under Reference on a single
// thread is legal and bit-identical; it INCLUDES everything that
// determines result bits (netlist structure, seed, protocol knobs, the
// delay and power model the engines lower — device age included — and
// estimator options).
//
// ## Failure handling
//
// Transient per-group failures retry with bounded exponential backoff
// (RetryPolicy, trace/sharded_pool.h); a retried group re-derives the
// same substreams so a retry is invisible in the result bits. Budget
// exhaustion (cfg.trapBudget, or retry.maxAttempts for one group)
// escalates as a WorkerError naming the group. A deadline
// (cfg.deadlineMs) cancels cooperatively through the progress-abort path
// and returns the committed prefix with `truncated` set instead of
// throwing. Engine quarantine guards the fast engines: a
// deterministic random sample of committed groups is re-run under
// Reference and digest-compared (spot-check); a mismatch or
// kQuarantineAfterDivergences SimDiverged failures demote the run to the
// Reference engine and record a QuarantineEvent. All of it lands in the
// run report's `resilience` block (lpa-run-report/4) via fillResilience().

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/run_report.h"
#include "power/power_model.h"
#include "sboxes/masked_sbox.h"
#include "sim/event_sim.h"
#include "stats/convergence.h"
#include "stats/streaming_leakage.h"
#include "trace/acquisition.h"
#include "trace/sharded_pool.h"
#include "trace/trace_set.h"

namespace lpa::jobs {

/// Stream index of the spot-check sampling domain; the substream family:
/// ~0 = schedule shuffle, ~1 = fault campaign, ~2 = adaptive batches,
/// ~3 = quarantine spot-check.
inline constexpr std::uint64_t kSpotCheckStream = ~3ULL;

/// SimDiverged failures after which a run quarantines its fast engine.
inline constexpr std::uint32_t kQuarantineAfterDivergences = 2;

/// One engine-quarantine decision: which group triggered it and why
/// ("spot-check-mismatch" or "sim-diverged").
struct QuarantineEvent {
  std::uint64_t group = 0;
  std::string reason;
};

/// The fate of one resilient run, rendered into the run report's
/// `resilience` block by fillResilience().
struct ResilienceInfo {
  bool resumed = false;      ///< started from a loaded checkpoint
  bool truncated = false;    ///< stopped early (deadline or drain)
  bool quarantined = false;  ///< fast engine demoted to Reference
  std::uint64_t groupsTotal = 0;
  std::uint64_t groupsCompleted = 0;
  std::uint32_t groupTraces = 0;
  std::uint64_t retries = 0;     ///< retried group attempts (all causes)
  std::uint64_t spotChecks = 0;  ///< reference re-runs performed
  std::vector<QuarantineEvent> events;
  /// "g<k>/<n>:<digest of the first k groups' traces>" per committed group
  /// of a checkpointed run, resumed groups included (empty without a
  /// checkpoint).
  std::vector<std::string> lineage;
  /// "completed" | "ci-target" | "max-traces" | "deadline" | "drain".
  std::string stopReason = "completed";
};

struct JobConfig {
  /// Checkpoint file ("" = run without durability; deadline/retry/
  /// quarantine still apply).
  std::string checkpointPath;
  /// Traces per commit group for fixed-schedule runs (adaptive runs group
  /// by batch: groupTraces := cfg.batchSize). Any positive count works —
  /// slices need no class balance of their own. Every committed group is
  /// appended to the checkpoint.
  std::uint32_t groupTraces = 256;
  RetryPolicy retry;
  /// Spot-check cadence: re-run ~1/k of committed fast-engine groups
  /// under Reference and digest-compare (0 = off). Which residue of k is
  /// sampled derives from Prng(deriveStreamSeed(seed, kSpotCheckStream)).
  std::uint32_t spotCheckEveryGroups = 0;
  /// Graceful drain for tests/operators: stop (truncated, "drain") after
  /// committing this many groups IN THIS SESSION (0 = no limit).
  std::uint64_t stopAfterGroups = 0;
  /// Estimator options; part of the checkpoint fingerprint.
  stats::StreamingLeakage::Options statsOpt;

  // ## Test hooks (all default-empty; pure observers unless they throw)

  /// Called before every group attempt — kill harnesses SIGKILL here,
  /// fault-injection tests throw from here.
  std::function<void(std::uint64_t group, std::uint32_t attempt,
                     SimEngine engine)>
      beforeGroupHook;
  /// May corrupt a freshly acquired group — traces [groupBegin, size())
  /// of `traces` — before the spot-check sees it, to exercise quarantine;
  /// `engine` is the engine that ran it. The estimator is re-folded from
  /// the traces afterwards.
  std::function<void(TraceSet& traces, std::size_t groupBegin,
                     SimEngine engine)>
      perturbHook;
  /// Deterministic clock for deadline tests: elapsed ms as a function of
  /// groups committed this session (empty = steady_clock wall time).
  std::function<double(std::uint64_t groupsCommittedThisRun)>
      elapsedMsOverride;
};

struct ResilientResult {
  TraceSet traces{0};
  stats::LeakageEstimate estimate;
  /// Adaptive runs: one convergence point per group observed in this
  /// session (a resumed run starts at the point re-derived from the
  /// checkpoint); empty for fixed runs.
  std::vector<stats::ConvergencePoint> history;
  ResilienceInfo resilience;
};

/// Fingerprint binding a checkpoint to one logical run: netlist digest +
/// style + protocol/estimator knobs + the physical model the engines
/// lower (simulator kind and swing factor, gate delays, power options,
/// aged pulse energies — so jitter, aging and delay faults count).
/// Engine, thread count, deadline, spot-check cadence and retry knobs are
/// excluded by design (see the resume invariant above). The protocol's
/// fixed kInitialValue is folded too, which keeps the pinned values.
/// Folded by DigestAccumulator (jobs/trace_digest.h);
/// tests/test_resilience.cpp pins the value of one fixed and one adaptive
/// config, because any change to it stops every existing checkpoint from
/// resuming.
std::uint64_t acquisitionFingerprint(const MaskedSbox& sbox,
                                     const EventSim& sim,
                                     const PowerModel& power,
                                     const AcquisitionConfig& cfg,
                                     const JobConfig& job);

/// Runs the durable acquisition described above. Honors cfg.adaptive
/// (convergence-gated groups), cfg.deadlineMs and cfg.trapBudget; `sim`
/// is the per-worker clone prototype exactly as in acquire(). Throws
/// std::invalid_argument on a malformed config, WorkerError on
/// retry-budget exhaustion and obs::ProgressAborted on a user abort; a
/// deadline or drain stop returns normally with resilience.truncated set.
/// cfg.progress sees "resilient-acquire" against the whole run's budget.
ResilientResult resilientAcquire(const MaskedSbox& sbox, EventSim& sim,
                                 const PowerModel& power,
                                 const AcquisitionConfig& cfg,
                                 const JobConfig& job = {});

/// The run report's `resilience` block for one run.
obs::Json resilienceJson(const ResilienceInfo& info);

/// resilienceJson + RunReport::setResilience in one call.
void fillResilience(obs::RunReport& report, const ResilienceInfo& info);

}  // namespace lpa::jobs
