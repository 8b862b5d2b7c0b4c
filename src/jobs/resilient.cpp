#include "jobs/resilient.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "jobs/checkpoint.h"
#include "jobs/trace_digest.h"
#include "netlist/stats.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "stats/convergence.h"
#include "trace/prng.h"

namespace lpa::jobs {

namespace {

/// True when `eptr` is a T or wraps one through any depth of nesting (the
/// sharded pool rethrows worker failures as WorkerError with the original
/// nested).
template <typename T>
bool causedBy(std::exception_ptr eptr) {
  try {
    std::rethrow_exception(eptr);
  } catch (const T&) {
    return true;
  } catch (const std::exception& e) {
    try {
      std::rethrow_if_nested(e);
    } catch (...) {
      return causedBy<T>(std::current_exception());
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
  std::uint64_t totalTraces = 16ULL * cfg.tracesPerClass;
  std::uint64_t groupTraces = job.groupTraces;
  if (cfg.adaptive) {
    totalTraces = batchMajorTraces(cfg);
    groupTraces = cfg.batchSize;
    if (!(cfg.targetCiRel > 0.0)) {
      throw std::invalid_argument(
          "resilientAcquire: targetCiRel must be > 0");
    }
  } else if (groupTraces == 0) {
    throw std::invalid_argument(
        "resilientAcquire: groupTraces must be positive");
  }
  const std::uint64_t groupsTotal =
      (totalTraces + groupTraces - 1) / groupTraces;
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

  // ---- Rollback: keepTraces(n) drops a discarded group — it truncates to
  // the first n traces and re-folds the estimator from them, bit-identical,
  // since the fold is a pure function of the traces in index order.
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

  /// Streams traces [begin, end) of the run under `eng`, `worker` the clone
  /// prototype, into `sink` with one acquisition call.
  const auto acquireSpan = [&](EventSim& worker, std::uint64_t begin,
                               std::uint64_t end, SimEngine eng,
                               const TraceSink& sink) {
    AcquisitionConfig call = cfg;
    call.engine = eng;
    call.progress = {};
    if (cfg.adaptive) {
      acquireBatches(sbox, worker, power, call, begin, end, sink);
    } else {
      acquireRange(sbox, worker, power, call, begin, end, sink);
    }
  };

  const auto stopEarly = [&](const char* reason) {
    info.truncated = true;
    info.stopReason = reason;
    obs::EventJournal::global().warn(
        "run-truncated", {{"reason", reason},
                          {"groups", std::to_string(info.groupsCompleted)}});
  };
  // Stops the run before its next group at the drain count or the deadline.
  const auto drainOrDeadline = [&] {
    if (job.stopAfterGroups > 0 && committedThisRun >= job.stopAfterGroups) {
      stopEarly("drain");
    } else if (outOfTime()) {
      stopEarly("deadline");
    }
    return !info.stopReason.empty();
  };

  info.groupsCompleted = g0;
  stats::ConvergenceMonitor monitor({cfg.targetCiRel, /*minTraces=*/0});
  if (cfg.adaptive && g0 > 0) {
    // Re-derive the stop decision the uninterrupted run took after the
    // last committed batch — a resumed converged run adds no group.
    res.estimate = stream.estimate();
    monitor.observe(res.estimate);
    if (monitor.converged()) info.stopReason = "ci-target";
  }

  // ---- One call per attempt: each streams every uncommitted group, and
  // its sink (on the delivering thread) cuts the stream into groups and
  // commits each at its last trace. The sink ends a call early by throwing
  // EndCall; the call then unwinds like a failed one, and its partial group
  // is dropped.
  struct EndCall {};
  std::uint64_t g = g0;       // the first uncommitted group
  std::uint32_t attempt = 0;  // failed calls that began at group g
  std::exception_ptr escape;  // rethrown once the call has unwound

  // Progress against the whole run and the deadline, read at each group's
  // first and last trace and at most every 0.1 s between. False ends the
  // call: the deadline passed, or the user's sink asked to abort.
  const bool reporting = cfg.progress || cfg.deadlineMs > 0;
  auto lastReport = std::chrono::steady_clock::now();
  const auto report = [&](std::uint64_t done) {
    lastReport = std::chrono::steady_clock::now();
    if (outOfTime()) {
      stopEarly("deadline");
      return false;
    }
    if (!cfg.progress) return true;
    const double sec = elapsedMs() / 1e3;
    const double rate = sec > 0.0 ? static_cast<double>(done) / sec : 0.0;
    if (cfg.progress({.label = "resilient-acquire",
                      .done = done,
                      .total = totalTraces,
                      .elapsedSec = sec,
                      .etaSec = sec / static_cast<double>(done) *
                                static_cast<double>(totalTraces - done),
                      .ratePerSec = rate})) {
      return true;
    }
    escape = std::make_exception_ptr(
        obs::ProgressAborted("resilient-acquire", done, totalTraces));
    return false;
  };

  // Commits group g, whose last trace just arrived: perturbHook, the
  // spot-check, the checkpoint append with its lineage and journal entry,
  // then the estimate and the stop rule. False ends the call: a stop before
  // the run's end, a spot-check mismatch (the run, quarantined, re-acquires
  // group g under Reference in a new call), or a failed commit step, which
  // escapes the run unretried.
  const auto commitGroup = [&]() -> bool {
    const auto [begin, end] = groupSpan(g);
    try {
      if (job.perturbHook) {
        job.perturbHook(res.traces, begin, engine);
        keepTraces(res.traces.size());
      }
      // Online spot-check: re-run a deterministic sample of fast-engine
      // groups under Reference, digesting the re-run as it streams — on a
      // clone of `sim`, which the running call may be using.
      if (spotEvery > 0 && engine != SimEngine::Reference &&
          g % spotEvery == spotOffset) {
        ++info.spotChecks;
        reg.counter("jobs.spot_checks").add(1);
        DigestAccumulator again;
        EventSim checker = sim.clone();
        acquireSpan(checker, begin, end, SimEngine::Reference,
                    [&](std::uint8_t label, const double* samples) {
                      again.addTrace(label, samples, numSamples);
                    });
        if (again.value() != digestOfRange(res.traces, begin, end)) {
          quarantine(g, "spot-check-mismatch");
          return false;
        }
        obs::EventJournal::global().info(
            "spot-check", {{"group", std::to_string(g)}, {"result", "ok"}});
      }
      info.groupsCompleted = g + 1;
      ++committedThisRun;
      attempt = 0;
      reg.counter("jobs.groups_committed").add(1);
      // Append every committed group, so a stopped run has always
      // checkpointed all of its work.
      if (durable) {
        extendLineage(g);
        // Flow start: a future process resuming from this checkpoint emits
        // the matching finish (it re-derives this very lineage entry).
        obs::TraceCollector& tc = obs::TraceCollector::global();
        tc.recordFlow("checkpoint-resume", tc.nowUs(),
                      digestOfBytes(info.lineage.back().data(),
                                    info.lineage.back().size()),
                      /*start=*/true);
        appendCheckpoint(job.checkpointPath, res.traces, begin, end);
        reg.counter("jobs.checkpoints_written").add(1);
        obs::EventJournal::global().info(
            "checkpoint-commit",
            {{"groups", std::to_string(info.groupsCompleted)},
             {"of", std::to_string(groupsTotal)},
             {"lineage", info.lineage.back()}});
      }
    } catch (...) {
      escape = std::current_exception();
      return false;
    }
    if (cfg.adaptive) {
      res.estimate = stream.estimate();
      monitor.observe(res.estimate);
      if (monitor.converged()) info.stopReason = "ci-target";
    }
    return ++g == groupsTotal ||
           (info.stopReason.empty() && !drainOrDeadline());
  };

  const TraceSink sink = [&](std::uint8_t label, const double* samples) {
    const auto [begin, end] = groupSpan(g);
    const std::uint64_t t = res.traces.size();
    if (t == begin && job.beforeGroupHook) {
      job.beforeGroupHook(g, attempt, engine);
    }
    res.traces.add(label, samples);
    stream.addTrace(label, samples);
    if ((reporting &&
         (t == begin || t + 1 == end ||
          std::chrono::steady_clock::now() - lastReport >=
              std::chrono::milliseconds(100)) &&
         !report(t + 1)) ||
        (t + 1 == end && !commitGroup())) {
      throw EndCall{};
    }
  };

  while (info.stopReason.empty() && g < groupsTotal && !drainOrDeadline()) {
    try {
      acquireSpan(sim, groupSpan(g).first, totalTraces, engine, sink);
    } catch (const std::exception& e) {
      if (res.traces.size() > g * groupTraces) keepTraces(g * groupTraces);
      if (escape) std::rethrow_exception(escape);
      // The sink ended the call: a stop, or a repair under Reference.
      if (causedBy<EndCall>(std::current_exception())) continue;
      const bool diverged = causedBy<SimDiverged>(std::current_exception());
      if (diverged && ++divergences >= kQuarantineAfterDivergences) {
        quarantine(g, "sim-diverged");
      }
      // The last attempt escalates; it is not a retry.
      const bool retry = attempt + 1 < job.retry.maxAttempts;
      if (retry) {
        ++info.retries;
        reg.counter("jobs.retries").add(1);
        obs::EventJournal::global().warn(
            "group-retry", {{"group", std::to_string(g)},
                            {"retries", std::to_string(info.retries)},
                            {"diverged", diverged ? "true" : "false"},
                            {"error", e.what()}});
      }
      if (!retry || info.retries > cfg.trapBudget) {
        std::throw_with_nested(WorkerError(
            static_cast<std::size_t>(g),
            "resilient group " + std::to_string(g) + "/" +
                std::to_string(groupsTotal) + " (style " +
                std::string(sbox.name()) + "): " + e.what()));
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retryBackoffMs(job.retry, attempt++)));
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
