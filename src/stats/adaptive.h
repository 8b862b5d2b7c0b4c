#pragma once
// Convergence-gated trace acquisition (DESIGN.md §10): its result type and
// stop reasons.
//
// Adaptive acquisition is a stop rule on the durable group loop
// (jobs::resilientAcquire, cfg.adaptive = true): group b collects one
// class-balanced batch, folds it into a StreamingLeakage estimator as its
// traces arrive, and the run stops as soon as the relative half-width of
// the total-leakage confidence interval meets the target — typically well
// before the fixed-count budget on styles whose estimate converges
// quickly. SboxExperiment::adaptiveAcquireAt runs that loop with
// durability off and returns an AdaptiveResult. The loop streams the whole
// run through one acquisition call (acquireBatches, trace/acquisition.h)
// and ends it when the rule fires, so work the engines simulated past the
// stop is discarded and never delivered: traces, estimate and history
// hold exactly the batches before the stop.
//
// ## Determinism contract
//
// Batch b runs the ordinary acquisition protocol under its own derived
// master seed
//
//   batchSeed_b = deriveStreamSeed(deriveStreamSeed(seed,
//                                                   kAdaptiveBatchStream), b)
//
// so every trace of batch b depends only on (seed, b, its index within the
// batch) — never on thread count, wall clock, or how earlier batches came
// out. Combined with the stop rule being a pure function of the folded
// traces, the whole adaptive run is bit-reproducible given (seed,
// batchSize), and a run that stops early returns a prefix of the traces the
// maxTraces run would return. The nested-derivation pattern mirrors the
// fault campaign's (~1 domain); the substream family so far:
//   ~0 = schedule shuffle, ~1 = fault campaign, ~2 = adaptive batches.

#include <cstdint>
#include <vector>

#include "stats/convergence.h"
#include "stats/streaming_leakage.h"
#include "trace/acquisition.h"
#include "trace/trace_set.h"

namespace lpa::stats {

/// Stream index of the adaptive batch-seed domain (trace/acquisition.h).
using lpa::kAdaptiveBatchStream;

enum class AdaptiveStop : std::uint8_t {
  CiTarget,   ///< the CI target was met before the budget ran out
  MaxTraces,  ///< the trace budget was exhausted first
};

const char* adaptiveStopName(AdaptiveStop stop);

struct AdaptiveResult {
  TraceSet traces;           ///< all acquired traces, batch order
  LeakageEstimate estimate;  ///< the final streaming estimate
  std::vector<ConvergencePoint> history;  ///< one point per batch
  std::uint32_t batches = 0;
  AdaptiveStop stop = AdaptiveStop::MaxTraces;
};

}  // namespace lpa::stats
