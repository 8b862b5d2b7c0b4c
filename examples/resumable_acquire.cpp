// Resumable acquisition walkthrough (DESIGN.md §12, EXPERIMENTS.md):
// drives jobs::resilientAcquire from the command line so long campaigns can
// be checkpointed, killed, resumed, and deadline-bounded — and so the CI
// chaos job can SIGKILL it mid-run and verify the resumed digest.
//
//   resumable_acquire [style] [flags]
//
//   style                      s-box style name, case-insensitive
//                              (default ISW; see allSboxStyles())
//   --checkpoint <path>        checkpoint file to write/resume from
//   --traces-per-class <n>     schedule size knob (default 64 -> 1024)
//   --group-traces <n>         traces per commit group (default 128)
//   --engine <name>            reference | auto
//   --threads <n>              worker threads (0 = hardware concurrency)
//   --deadline-ms <n>          wall-clock budget; partial result on expiry
//   --stop-after-groups <n>    graceful drain after n committed groups
//   --kill-after-groups <n>    raise(SIGKILL) when the run reaches group n
//                              (chaos harness: groups 0..n-1 are already
//                              committed and durable)
//   --adaptive                 convergence-gated run (batch = group)
//   plus the shared observability flags (--json/--ledger/--progress).
//
// Exit status: 0 on a completed run, 4 on a truncated (deadline/drain)
// run — so wrapper scripts can tell "done" from "come back and resume".

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "core/experiment.h"
#include "jobs/resilient.h"
#include "jobs/trace_digest.h"
#include "stats/report.h"

using namespace lpa;

namespace {

SboxStyle styleByName(const std::string& name) {
  const auto lower = [](std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  };
  for (SboxStyle s : allSboxStyles()) {
    if (lower(std::string(sboxStyleName(s))) == lower(name)) return s;
  }
  std::fprintf(stderr, "unknown style \"%s\"; known:", name.c_str());
  for (SboxStyle s : allSboxStyles()) {
    std::fprintf(stderr, " %s", std::string(sboxStyleName(s)).c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

SimEngine engineByName(const std::string& name) {
  if (name == "reference") return SimEngine::Reference;
  if (name == "auto") return SimEngine::Auto;
  std::fprintf(stderr, "unknown engine \"%s\" (reference|auto)\n",
               name.c_str());
  std::exit(2);
}

/// `--flag value` / `--flag=value` lookup over the positionals that
/// parseBenchArgs passed through; erases what it consumes.
std::string takeFlag(std::vector<std::string>& rest, const std::string& flag,
                     bool* present = nullptr) {
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == flag) {
      if (i + 1 >= rest.size()) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        std::exit(2);
      }
      std::string v = rest[i + 1];
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i),
                 rest.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      if (present) *present = true;
      return v;
    }
    if (rest[i].rfind(flag + "=", 0) == 0) {
      std::string v = rest[i].substr(flag.size() + 1);
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      if (present) *present = true;
      return v;
    }
  }
  if (present) *present = false;
  return "";
}

std::uint64_t takeCount(std::vector<std::string>& rest,
                        const std::string& flag, std::uint64_t fallback) {
  bool present = false;
  const std::string v = takeFlag(rest, flag, &present);
  if (!present) return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size()) {
    std::fprintf(stderr, "bad %s value \"%s\"\n", flag.c_str(), v.c_str());
    std::exit(2);
  }
  return n;
}

bool takeSwitch(std::vector<std::string>& rest, const std::string& flag) {
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == flag) {
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  std::vector<std::string> rest = args.positional;

  jobs::JobConfig job;
  job.checkpointPath = takeFlag(rest, "--checkpoint");
  job.groupTraces =
      static_cast<std::uint32_t>(takeCount(rest, "--group-traces", 128));
  job.stopAfterGroups = takeCount(rest, "--stop-after-groups", 0);

  ExperimentConfig cfg;
  cfg.acquisition.tracesPerClass =
      static_cast<std::uint32_t>(takeCount(rest, "--traces-per-class", 64));
  cfg.acquisition.numThreads =
      static_cast<std::uint32_t>(takeCount(rest, "--threads", 0));
  cfg.acquisition.deadlineMs = takeCount(rest, "--deadline-ms", 0);
  if (takeSwitch(rest, "--adaptive")) {
    cfg.acquisition.adaptive = true;
    cfg.acquisition.batchSize = job.groupTraces;
  }
  bool enginePresent = false;
  const std::string engineName = takeFlag(rest, "--engine", &enginePresent);
  if (enginePresent) cfg.acquisition.engine = engineByName(engineName);

  // Chaos knob: die by SIGKILL — not exit(), not abort(), nothing that
  // runs destructors — the moment the run reaches the given group, after
  // every earlier group is committed. Everything committed before it must
  // survive in the checkpoint.
  const std::uint64_t killAfter =
      takeCount(rest, "--kill-after-groups", ~0ULL);
  if (killAfter != ~0ULL) {
    job.beforeGroupHook = [killAfter](std::uint64_t group, std::uint32_t,
                                      SimEngine) {
      if (group >= killAfter) ::raise(SIGKILL);
    };
  }

  const std::string styleName =
      rest.empty() ? std::string("ISW") : rest.front();
  if (!rest.empty()) rest.erase(rest.begin());
  for (const std::string& stray : rest) {
    std::fprintf(stderr, "unrecognized argument \"%s\"\n", stray.c_str());
    return 2;
  }
  const SboxStyle style = styleByName(styleName);

  bench::RunScope scope("resumable_acquire", args);
  scope.report().setSeed(cfg.acquisition.seed);
  scope.report().setParam("style", styleName);
  scope.report().setParam("group_traces",
                          static_cast<double>(job.groupTraces));
  cfg.acquisition.progress = scope.progressSink();

  SboxExperiment exp(style, cfg);
  const jobs::ResilientResult res = exp.resilientAcquireAt(0.0, job);

  jobs::DigestAccumulator digest;
  digest.addTraceSet(res.traces);
  std::printf("style            %s\n", styleName.c_str());
  std::printf("traces           %zu (%llu/%llu groups of %u)\n",
              res.traces.size(),
              static_cast<unsigned long long>(res.resilience.groupsCompleted),
              static_cast<unsigned long long>(res.resilience.groupsTotal),
              res.resilience.groupTraces);
  std::printf("stop             %s%s%s\n", res.resilience.stopReason.c_str(),
              res.resilience.resumed ? " (resumed)" : "",
              res.resilience.quarantined ? " (quarantined)" : "");
  std::printf("retries          %llu   spot-checks %llu\n",
              static_cast<unsigned long long>(res.resilience.retries),
              static_cast<unsigned long long>(res.resilience.spotChecks));
  if (res.estimate.traces > 0) {
    std::printf("total leakage    %.2f (+-%.2f at %g%%)\n",
                res.estimate.total, res.estimate.totalCi.halfWidth,
                100.0 * res.estimate.confidence);
  }
  std::printf("digest           %s\n", digest.hex().c_str());

  stats::fillStatistics(scope.report(), res.estimate,
                        res.resilience.stopReason.c_str());
  jobs::fillResilience(scope.report(), res.resilience);
  scope.report().setDigest(digest.hex());
  if (obs::Heartbeat* hb = scope.heartbeat()) {
    // /2 heartbeat gaps: why the run stopped and which checkpoint lineage
    // it belongs to, so watchers can attribute every resume of a campaign.
    hb->setStopReason(res.resilience.stopReason);
    if (!res.resilience.lineage.empty()) {
      hb->setLineageId(res.resilience.lineage.front());
    }
    hb->finish(res.resilience.truncated ? "truncated" : "completed");
  }
  return res.resilience.truncated ? 4 : 0;
}
