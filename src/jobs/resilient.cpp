#include "jobs/resilient.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <stdexcept>

#include "jobs/checkpoint.h"
#include "jobs/trace_digest.h"
#include "netlist/stats.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "stats/adaptive.h"
#include "stats/convergence.h"
#include "trace/prng.h"

namespace lpa::jobs {

namespace {

/// Best-effort message of the exception behind `eptr`, for journal fields.
std::string describeError(std::exception_ptr eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// True when `eptr` is a SimDiverged or wraps one through any depth of
/// nesting (the sharded pool rethrows worker failures as WorkerError with
/// the original nested).
bool causedByDivergence(std::exception_ptr eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const SimDiverged&) {
    return true;
  } catch (const std::exception& e) {
    try {
      std::rethrow_if_nested(e);
    } catch (...) {
      return causedByDivergence(std::current_exception());
    }
    return false;
  } catch (...) {
    return false;
  }
}

}  // namespace

std::uint64_t acquisitionFingerprint(const MaskedSbox& sbox,
                                     const EventSim& sim,
                                     const PowerModel& power,
                                     const AcquisitionConfig& cfg,
                                     const JobConfig& job) {
  DigestAccumulator h;
  h.addU64(netlistDigest(sbox.netlist()));
  h.addU64(static_cast<std::uint64_t>(sbox.style()));
  h.addU64(cfg.seed);
  h.addU64(cfg.tracesPerClass);
  h.addU64(kInitialValue);
  // The physical model as the engines lower it (CompiledDesign): delay kind
  // and swing weighting, every gate's delay (load, jitter, aging, delay
  // faults), the power options and every gate's aged pulse energy.
  h.addU64(static_cast<std::uint64_t>(sim.options().kind));
  h.add(sim.options().fullSwingFactor);
  for (double d : sim.delayModel().delays()) h.add(d);
  const PowerOptions& po = power.options();
  h.add(po.samplePeriodPs);
  h.addU64(po.numSamples);
  h.add(po.pulseWidthPs);
  h.add(po.inputCapFf);
  h.add(po.outputLoadFf);
  h.add(po.noiseSigma);
  for (std::size_t g = 0; g < power.numGates(); ++g) {
    h.add(power.effectiveCapFf(static_cast<NetId>(g)));
  }
  h.addU64(cfg.adaptive ? 1 : 0);
  if (cfg.adaptive) {
    h.addU64(cfg.batchSize);
    h.addU64(cfg.maxTraces != 0 ? cfg.maxTraces
                                : 16ULL * cfg.tracesPerClass);
    h.add(cfg.targetCiRel);
  } else {
    h.addU64(job.groupTraces);
  }
  h.addU64(static_cast<std::uint64_t>(job.statsOpt.mode));
  h.addU64(job.statsOpt.numFolds);
  h.add(job.statsOpt.confidence);
  return h.value();
}

ResilientResult resilientAcquire(const MaskedSbox& sbox, EventSim& sim,
                                 const PowerModel& power,
                                 const AcquisitionConfig& cfg,
                                 const JobConfig& job) {
  const std::uint32_t numSamples = power.options().numSamples;
  std::uint64_t totalTraces = 0;
  std::uint64_t groupTraces = 0;
  std::uint64_t domainSeed = 0;
  if (cfg.adaptive) {
    if (cfg.batchSize == 0 || cfg.batchSize % 16 != 0) {
      throw std::invalid_argument(
          "resilientAcquire: batchSize must be a positive multiple of 16");
    }
    totalTraces =
        cfg.maxTraces != 0 ? cfg.maxTraces : 16ULL * cfg.tracesPerClass;
    if (totalTraces == 0 || totalTraces % 16 != 0) {
      throw std::invalid_argument(
          "resilientAcquire: maxTraces must be a positive multiple of 16");
    }
    if (!(cfg.targetCiRel > 0.0)) {
      throw std::invalid_argument(
          "resilientAcquire: targetCiRel must be > 0");
    }
    groupTraces = cfg.batchSize;
    domainSeed = deriveStreamSeed(cfg.seed, stats::kAdaptiveBatchStream);
  } else {
    if (job.groupTraces == 0) {
      throw std::invalid_argument(
          "resilientAcquire: groupTraces must be positive");
    }
    totalTraces = 16ULL * cfg.tracesPerClass;
    groupTraces = job.groupTraces;
  }
  const std::uint64_t groupsTotal =
      totalTraces == 0 ? 0 : (totalTraces + groupTraces - 1) / groupTraces;
  const auto groupSpan = [&](std::uint64_t g) {
    const std::uint64_t begin = g * groupTraces;
    return std::pair<std::uint64_t, std::uint64_t>(
        begin, std::min(begin + groupTraces, totalTraces));
  };

  const std::uint64_t fingerprint =
      acquisitionFingerprint(sbox, sim, power, cfg, job);
  auto& reg = obs::MetricsRegistry::global();
  obs::Span span("jobs.resilient-acquire (" + std::string(sbox.name()) +
                 ", " + std::to_string(groupsTotal) + " groups)");

  ResilientResult res;
  res.traces = TraceSet(numSamples);
  stats::StreamingLeakage stream(numSamples, job.statsOpt);
  ResilienceInfo& info = res.resilience;
  info.groupsTotal = groupsTotal;
  info.groupTraces = static_cast<std::uint32_t>(groupTraces);
  info.stopReason.clear();

  // ---- Lineage: "g<k>/<n>:<digest of the first k groups>" per committed
  // group, from one running digest of the committed traces. Only a
  // checkpointed run keeps it.
  const bool durable = !job.checkpointPath.empty();
  DigestAccumulator committedDigest;
  const auto extendLineage = [&](std::uint64_t g) {
    const auto [begin, end] = groupSpan(g);
    committedDigest.addRange(res.traces, begin, end);
    info.lineage.push_back(std::string("g")
                               .append(std::to_string(g + 1))
                               .append("/")
                               .append(std::to_string(groupsTotal))
                               .append(":")
                               .append(committedDigest.hex()));
  };

  // ---- Resume: adopt the committed prefix of a matching checkpoint and
  // rebuild the estimator and the lineage from its traces. A foreign
  // checkpoint or a bad header is ignored (fresh start), never trusted.
  std::uint64_t g0 = 0;
  if (durable) {
    const CheckpointHeader header{fingerprint, numSamples,
                                  static_cast<std::uint32_t>(groupTraces)};
    std::optional<Checkpoint> cp = loadCheckpoint(job.checkpointPath);
    bool ok = cp && cp->header == header &&
              cp->recordTraces.size() <= groupsTotal;
    for (std::uint64_t k = 0; ok && k < cp->recordTraces.size(); ++k) {
      const auto [begin, end] = groupSpan(k);
      ok = cp->recordTraces[k] == end - begin;
    }
    if (!ok) {
      startCheckpoint(job.checkpointPath, header);
    } else {
      // Cut a torn or corrupt tail before the first append; that append's
      // fsync makes the cut durable, and a crash before it leaves a tail
      // the next load drops again.
      std::filesystem::resize_file(job.checkpointPath, cp->endBytes);
      res.traces = std::move(cp->traces);
      stream.addTraceSet(res.traces);
      g0 = cp->recordTraces.size();
      for (std::uint64_t k = 0; k < g0; ++k) extendLineage(k);
      info.resumed = g0 > 0;
      if (info.resumed) {
        reg.counter("jobs.resumes").add(1);
        obs::EventJournal::global().info(
            "checkpoint-resume", {{"groups", std::to_string(g0)},
                                  {"of", std::to_string(groupsTotal)},
                                  {"lineage", info.lineage.back()}});
        // Flow finish: the matching start was emitted by the process
        // that wrote this checkpoint (same lineage-entry hash), so the
        // exported traces of both processes draw one resume arrow.
        obs::TraceCollector& tc = obs::TraceCollector::global();
        tc.recordFlow("checkpoint-resume", tc.nowUs(),
                      digestOfBytes(info.lineage.back().data(),
                                    info.lineage.back().size()),
                      /*start=*/false);
      }
    }
  }
  res.traces.reserve(totalTraces);

  // ---- Streaming: each group's traces reach the result and the estimator
  // as the pool delivers them. keepTraces(n) rolls a discarded group back:
  // it truncates to the first n traces and re-folds the estimator from
  // them — bit-identical, since the fold is a pure function of the traces
  // in index order.
  const TraceSink commit = [&](std::uint8_t label, const double* samples) {
    res.traces.add(label, samples);
    stream.addTrace(label, samples);
  };
  const auto keepTraces = [&](std::size_t n) {
    res.traces.truncate(n);
    stream = stats::StreamingLeakage(numSamples, job.statsOpt);
    stream.addTraceSet(res.traces);
  };

  // ---- Clock and deadline (override makes tests deterministic: the
  // virtual clock advances only at group boundaries).
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t committedThisRun = 0;
  const auto elapsedMs = [&]() -> double {
    if (job.elapsedMsOverride) return job.elapsedMsOverride(committedThisRun);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  const auto outOfTime = [&] {
    return cfg.deadlineMs > 0 &&
           elapsedMs() >= static_cast<double>(cfg.deadlineMs);
  };
  std::atomic<bool> deadlineTripped{false};

  SimEngine engine = cfg.engine;
  std::uint32_t divergences = 0;
  const std::uint32_t spotEvery = job.spotCheckEveryGroups;
  const std::uint64_t spotOffset =
      spotEvery > 0
          ? Prng(deriveStreamSeed(cfg.seed, kSpotCheckStream)).below(spotEvery)
          : 0;

  const auto quarantine = [&](std::uint64_t g, const char* reason) {
    if (engine == SimEngine::Reference) return;
    engine = SimEngine::Reference;
    info.quarantined = true;
    info.events.push_back({g, reason});
    reg.counter("jobs.quarantines").add(1);
    obs::EventJournal::global().error(
        "engine-quarantine",
        {{"group", std::to_string(g)}, {"reason", reason}});
  };

  /// Streams group g under `eng` into `sink`: a plain acquireRange slice
  /// (fixed) or one adaptive batch under its derived substream — identical
  /// bits to what the uninterrupted run collects at those indices. With
  /// `report`, progress is re-reported against the whole run and the
  /// deadline can trip mid-group.
  const auto runGroup = [&](std::uint64_t g, SimEngine eng,
                            const TraceSink& sink, bool report) {
    AcquisitionConfig bcfg = cfg;
    bcfg.adaptive = false;
    bcfg.engine = eng;
    bcfg.progress = {};
    const auto [begin, end] = groupSpan(g);
    if (report && (cfg.progress || cfg.deadlineMs > 0)) {
      bcfg.progress = [&, base = begin](const obs::ProgressUpdate& u) {
        if (outOfTime()) {
          deadlineTripped.store(true, std::memory_order_relaxed);
          return false;
        }
        if (!cfg.progress) return true;
        obs::ProgressUpdate o;
        o.label = "resilient-acquire";
        o.done = base + u.done;
        o.total = totalTraces;
        o.elapsedSec = elapsedMs() / 1e3;
        o.ratePerSec = o.elapsedSec > 0.0
                           ? static_cast<double>(o.done) / o.elapsedSec
                           : 0.0;
        o.etaSec = o.done > 0 ? o.elapsedSec / static_cast<double>(o.done) *
                                    static_cast<double>(o.total - o.done)
                              : -1.0;
        return cfg.progress(o);
      };
    }
    if (cfg.adaptive) {
      // Batch g is a whole balanced run of its own substream.
      bcfg.tracesPerClass = static_cast<std::uint32_t>((end - begin) / 16);
      bcfg.seed = deriveStreamSeed(domainSeed, g);
      acquireRange(sbox, sim, power, bcfg, 0, end - begin, sink);
    } else {
      acquireRange(sbox, sim, power, bcfg, begin, end, sink);
    }
  };

  /// Streams group g into the result under the current engine, retrying
  /// transient failures (each attempt first rolls back the traces a failed
  /// one streamed). Returns false when the deadline tripped mid-group; the
  /// partial group is rolled back.
  SimEngine ranWith = engine;
  const auto acquireGroup = [&](std::uint64_t g) -> bool {
    const std::size_t begin = groupSpan(g).first;
    deadlineTripped.store(false, std::memory_order_relaxed);
    try {
      retryWithBackoff(
          job.retry,
          [&](std::uint32_t attempt) {
            if (res.traces.size() > begin) keepTraces(begin);
            ranWith = engine;
            if (job.beforeGroupHook) job.beforeGroupHook(g, attempt, engine);
            runGroup(g, engine, commit, /*report=*/true);
          },
          [&](std::uint32_t attempt, std::exception_ptr eptr) {
            // Aborts — user or deadline — are not failures; never retry.
            try {
              std::rethrow_exception(eptr);
            } catch (const obs::ProgressAborted&) {
              return false;
            } catch (...) {
            }
            const bool diverged = causedByDivergence(eptr);
            if (diverged) {
              ++divergences;
              if (divergences >= kQuarantineAfterDivergences) {
                quarantine(g, "sim-diverged");
              }
            }
            // The last attempt escalates; it is not a retry.
            if (attempt + 1 >= job.retry.maxAttempts) return false;
            ++info.retries;
            reg.counter("jobs.retries").add(1);
            obs::EventJournal::global().warn(
                "group-retry",
                {{"group", std::to_string(g)},
                 {"retries", std::to_string(info.retries)},
                 {"diverged", diverged ? "true" : "false"},
                 {"error", describeError(eptr)}});
            return info.retries <= cfg.trapBudget;
          });
    } catch (const obs::ProgressAborted& e) {
      if (deadlineTripped.load(std::memory_order_relaxed)) {
        keepTraces(begin);
        return false;
      }
      // A user abort propagates, denominated in the overall run.
      throw obs::ProgressAborted("resilient-acquire", begin + e.done(),
                                 totalTraces);
    } catch (const std::exception& e) {
      std::throw_with_nested(WorkerError(
          static_cast<std::size_t>(g),
          "resilient group " + std::to_string(g) + "/" +
              std::to_string(groupsTotal) + " (style " +
              std::string(sbox.name()) + "): " + e.what()));
    }
    return true;
  };

  // Appends every committed group to the checkpoint, so a stopped run has
  // always checkpointed all of its work.
  const auto writeCheckpoint = [&](std::uint64_t g) {
    if (!durable) return;
    extendLineage(g);
    // Flow start: a future process resuming from this checkpoint emits the
    // matching finish (it re-derives this very lineage entry).
    obs::TraceCollector& tc = obs::TraceCollector::global();
    tc.recordFlow("checkpoint-resume", tc.nowUs(),
                  digestOfBytes(info.lineage.back().data(),
                                info.lineage.back().size()),
                  /*start=*/true);
    const auto [begin, end] = groupSpan(g);
    appendCheckpoint(job.checkpointPath, res.traces, begin, end);
    reg.counter("jobs.checkpoints_written").add(1);
    obs::EventJournal::global().info(
        "checkpoint-commit", {{"groups", std::to_string(info.groupsCompleted)},
                              {"of", std::to_string(groupsTotal)},
                              {"lineage", info.lineage.back()}});
  };

  const auto stopEarly = [&](const char* reason) {
    info.truncated = true;
    info.stopReason = reason;
    obs::EventJournal::global().warn(
        "run-truncated", {{"reason", reason},
                          {"groups", std::to_string(info.groupsCompleted)}});
  };

  info.groupsCompleted = g0;
  stats::ConvergenceMonitor monitor({cfg.targetCiRel, /*minTraces=*/0});
  bool stopped = false;
  if (cfg.adaptive && g0 > 0) {
    // Re-derive the stop decision the uninterrupted run took after the
    // last committed batch — a resumed converged run adds no group.
    res.estimate = stream.estimate();
    monitor.observe(res.estimate);
    if (monitor.converged()) {
      info.stopReason = "ci-target";
      stopped = true;
    }
  }

  std::uint64_t g = g0;
  while (!stopped && g < groupsTotal) {
    if (job.stopAfterGroups > 0 && committedThisRun >= job.stopAfterGroups) {
      stopEarly("drain");
      break;
    }
    if (outOfTime() || !acquireGroup(g)) {
      stopEarly("deadline");
      break;
    }
    const auto [begin, end] = groupSpan(g);
    if (job.perturbHook) {
      job.perturbHook(res.traces, begin, ranWith);
      keepTraces(res.traces.size());
    }

    // Online spot-check: re-run a deterministic sample of fast-engine
    // groups under Reference, digesting the re-run as it streams; a
    // mismatch quarantines the fast engine and re-acquires the group
    // under Reference.
    if (spotEvery > 0 && ranWith != SimEngine::Reference &&
        g % spotEvery == spotOffset) {
      ++info.spotChecks;
      reg.counter("jobs.spot_checks").add(1);
      DigestAccumulator again;
      runGroup(g, SimEngine::Reference,
               [&](std::uint8_t label, const double* samples) {
                 again.addTrace(label, samples, numSamples);
               },
               /*report=*/false);
      if (again.value() == digestOfRange(res.traces, begin, end)) {
        obs::EventJournal::global().info(
            "spot-check", {{"group", std::to_string(g)}, {"result", "ok"}});
      } else {
        quarantine(g, "spot-check-mismatch");
        if (!acquireGroup(g)) {
          stopEarly("deadline");
          break;
        }
      }
    }

    info.groupsCompleted = g + 1;
    ++committedThisRun;
    reg.counter("jobs.groups_committed").add(1);
    writeCheckpoint(g);
    ++g;

    if (cfg.adaptive) {
      res.estimate = stream.estimate();
      monitor.observe(res.estimate);
      if (monitor.converged()) {
        info.stopReason = "ci-target";
        stopped = true;
      }
    }
  }

  if (info.stopReason.empty()) {
    info.stopReason = cfg.adaptive ? "max-traces" : "completed";
  }
  obs::EventJournal::global().info(
      "resilient-stop", {{"reason", info.stopReason},
                         {"groups", std::to_string(info.groupsCompleted)},
                         {"of", std::to_string(groupsTotal)}});
  if (stream.traces() > 0 && !cfg.adaptive) res.estimate = stream.estimate();
  res.history = monitor.history();
  reg.gauge("jobs.groups_completed")
      .set(static_cast<double>(info.groupsCompleted));
  return res;
}

obs::Json resilienceJson(const ResilienceInfo& info) {
  obs::Json j = obs::Json::object();
  j["truncated"] = obs::Json(info.truncated);
  j["resumed"] = obs::Json(info.resumed);
  j["quarantined"] = obs::Json(info.quarantined);
  j["groups_total"] = obs::Json(info.groupsTotal);
  j["groups_completed"] = obs::Json(info.groupsCompleted);
  j["group_traces"] = obs::Json(static_cast<std::uint64_t>(info.groupTraces));
  j["retries"] = obs::Json(info.retries);
  j["spot_checks"] = obs::Json(info.spotChecks);
  j["stop_reason"] = obs::Json(info.stopReason);
  obs::Json events = obs::Json::array();
  for (const QuarantineEvent& ev : info.events) {
    obs::Json e = obs::Json::object();
    e["group"] = obs::Json(ev.group);
    e["reason"] = obs::Json(ev.reason);
    events.push_back(std::move(e));
  }
  j["quarantine_events"] = std::move(events);
  obs::Json lineage = obs::Json::array();
  for (const std::string& s : info.lineage) lineage.push_back(obs::Json(s));
  j["checkpoint_lineage"] = std::move(lineage);
  return j;
}

void fillResilience(obs::RunReport& report, const ResilienceInfo& info) {
  report.setResilience(resilienceJson(info));
}

}  // namespace lpa::jobs
