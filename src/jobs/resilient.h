#pragma once
// Durable acquisition: checkpoint/resume, deadlines, retry, quarantine
// (DESIGN.md §12).
//
// `resilientAcquire` runs the ordinary acquisition protocol — fixed
// schedule or convergence-gated (cfg.adaptive; SboxExperiment::
// adaptiveAcquireAt is this loop with durability off) — and commits it
// group by group, appending each committed group to a crash-safe
// checkpoint (jobs/checkpoint.h), so a long campaign survives SIGKILL,
// preemption and transient worker failures without losing committed work
// or its determinism guarantees.
//
// ## Resume invariant
//
// Group g covers traces [g*groupTraces, ...) of the run — of the fixed
// schedule (acquireRange) or of the batch-major protocol (acquireBatches;
// groupTraces := cfg.batchSize) — a pure function of (seed, g), never of
// wall clock, engine, thread count or how the run was cut into calls.
// Each attempt streams every uncommitted group through one acquisition
// call, whose sink commits each group at its last trace, in group order on
// one thread. A call that ends early drops its partial group: the result
// is truncated to the committed traces and the estimator re-folded from
// them, bit-identical, as the fold is a pure function of the traces in
// index order; a resumed run re-folds the checkpoint's traces the same
// way. Hence a resumed run's final TraceSet, estimate and digest are
// bit-identical to the uninterrupted run's, for any interleaving of kills,
// engines and thread counts across sessions. The checkpoint's fingerprint
// EXCLUDES engine and thread count and INCLUDES everything that determines
// result bits (netlist structure, seed, protocol knobs, the delay and power
// model the engines lower — device age included — and estimator options).
//
// ## Failure handling
//
// A failure inside a call (a worker, a hook, the user's progress sink)
// fails the attempt at the first uncommitted group g: the committed prefix
// stands, and after a bounded exponential backoff (RetryPolicy,
// trace/sharded_pool.h) a new call starts at g, re-deriving the same
// substreams, so a retry is invisible in the result bits. Budget
// exhaustion (cfg.trapBudget, or retry.maxAttempts failed calls at one
// group) escalates as a WorkerError naming the group; a failed commit step
// (checkpoint append, spot-check re-run) escapes unretried. A stop is no
// failure: the stop rule, the drain count and the deadline (cfg.deadlineMs,
// read at group boundaries and as progress is reported) end the call and
// return the committed prefix. Engine quarantine: a deterministic random
// sample of fast-engine groups is re-run under Reference and
// digest-compared before it commits (spot-check); a mismatch or
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

  /// Called when a call reaches group g, after every earlier group is
  /// committed; `attempt` counts the failed calls that began at g. Kill
  /// harnesses SIGKILL here, fault-injection tests throw from here.
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
/// cfg.progress sees "resilient-acquire" against the whole run's budget at
/// each group's first and last trace, and at most every 0.1 s between.
ResilientResult resilientAcquire(const MaskedSbox& sbox, EventSim& sim,
                                 const PowerModel& power,
                                 const AcquisitionConfig& cfg,
                                 const JobConfig& job = {});

/// The run report's `resilience` block for one run.
obs::Json resilienceJson(const ResilienceInfo& info);

/// resilienceJson + RunReport::setResilience in one call.
void fillResilience(obs::RunReport& report, const ResilienceInfo& info);

}  // namespace lpa::jobs
