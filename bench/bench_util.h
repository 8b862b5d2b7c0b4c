#pragma once
// Shared helpers for the reproduction benches. Each bench binary regenerates
// one table or figure of the paper and prints it as aligned text (and the
// figure benches additionally emit CSV-ish rows easy to plot).
//
// Observability flags (every bench accepts them, see DESIGN.md §8/§10/§13):
//   --json <path>      write a machine-readable run report (lpa-run-report/4)
//   --ledger <path>    append the report to a JSONL run ledger, one
//                      report per line (tools/lpa_dashboard.py renders it)
//   --trace <path>     write a Chrome trace-event JSON (chrome://tracing)
//   --progress         render a live progress line on stderr
//   --profile          attach the cost-attribution profiler (obs/profiler.h)
//                      and per-phase hardware counters; the report gains a
//                      "profile" block (tools/lpa_profile.py renders it)
//   --heartbeat <path> keep a rate-limited file rendering of the run's
//                      live status (lpa-heartbeat/2, atomic rename; survives
//                      crashes as the last written state)
//   --listen[=port]    start the embedded telemetry server (DESIGN.md §15):
//                      GET /metrics (Prometheus), /healthz, /events (journal
//                      tail), and /status and /progress (SSE), which render
//                      the same heartbeat document. Default port 0 =
//                      kernel-assigned ephemeral; the bound address is
//                      printed on stderr. Loopback only.
//   --journal <path>   flush the structured event journal
//                      (lpa-event-journal/1 JSONL) at scope exit
//   --linger <sec>     keep the telemetry server up this long (0..86400 s)
//                      after the run finishes, so scrapers can collect the
//                      final state

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <memory>

#include "core/experiment.h"
#include "jobs/trace_digest.h"
#include "obs/event_journal.h"
#include "obs/heartbeat.h"
#include "obs/telemetry_server.h"
#include "obs/hw_counters.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/run_report.h"
#include "obs/trace_span.h"

namespace lpa::bench {

/// Minimal wall-clock stopwatch for throughput reporting.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void restart() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Times `fn()` and returns {result of last run, seconds of best run}.
/// Runs `reps` times and keeps the fastest (standard bench practice).
template <typename Fn>
double bestOf(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

inline void header(const std::string& what, const std::string& paperRef) {
  std::printf("================================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("(reproduces %s of Bahrami et al., DATE 2022)\n", paperRef.c_str());
  std::printf("================================================================\n");
}

/// Months of operation shown in Figs. 7/8 (0 = fresh, then 1..4 years).
inline const std::vector<double>& figureAges() {
  static const std::vector<double> kAges = {0.0, 12.0, 24.0, 36.0, 48.0};
  return kAges;
}

inline std::string styleName(SboxStyle s) {
  return std::string(sboxStyleName(s));
}

/// Observability flags shared by every bench/example binary, plus whatever
/// positional arguments the binary defines for itself.
struct BenchArgs {
  std::string jsonPath;    ///< --json <path>: run-report destination
  std::string ledgerPath;  ///< --ledger <path>: JSONL run-ledger to append to
  std::string tracePath;   ///< --trace <path>: Chrome trace destination
  bool progress = false;   ///< --progress: live stderr progress line
  bool profile = false;    ///< --profile: cost-attribution profiler on
  std::string heartbeatPath;  ///< --heartbeat <path>: live-status JSON file
  bool listen = false;        ///< --listen[=port]: embedded telemetry server
  std::uint16_t listenPort = 0;  ///< 0 = ephemeral (kernel-assigned)
  std::string journalPath;    ///< --journal <path>: event-journal JSONL flush
  double lingerSec = 0.0;     ///< --linger <sec>: keep server up after run
  std::vector<std::string> positional;  ///< everything unrecognized, in order
};

/// Extracts the shared observability flags; unknown flags and positionals
/// pass through in `positional`. Both `--flag value` and `--flag=value`
/// spellings are accepted in any position relative to positionals — an
/// `=`-form flag used to fall through into `positional`, where a bench's
/// count argument would then silently std::atoi it to 0. Exits with
/// status 2 and a usage message on a flag that is missing its value, a
/// --listen port outside 0..65535 or a --linger outside 0..86400 s.
inline BenchArgs parseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a path argument\n", argv[0],
                     flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // A finite number of seconds in [0, 86400]: garbage must not silently
    // become 0, and inf/1e300 must not reach sleep_for, whose conversion
    // to integer ticks would overflow.
    const auto lingerSeconds = [&](const std::string& text) {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (text.empty() || end != text.c_str() + text.size() ||
          !(v >= 0.0 && v <= 86400.0)) {
        std::fprintf(stderr, "%s: bad --linger seconds \"%s\" (0..86400)\n",
                     argv[0], text.c_str());
        std::exit(2);
      }
      return v;
    };
    if (a == "--json") {
      args.jsonPath = value("--json");
    } else if (a.rfind("--json=", 0) == 0) {
      args.jsonPath = a.substr(7);
    } else if (a == "--ledger") {
      args.ledgerPath = value("--ledger");
    } else if (a.rfind("--ledger=", 0) == 0) {
      args.ledgerPath = a.substr(9);
    } else if (a == "--trace") {
      args.tracePath = value("--trace");
    } else if (a.rfind("--trace=", 0) == 0) {
      args.tracePath = a.substr(8);
    } else if (a == "--progress") {
      args.progress = true;
    } else if (a == "--profile") {
      args.profile = true;
    } else if (a == "--heartbeat") {
      args.heartbeatPath = value("--heartbeat");
    } else if (a.rfind("--heartbeat=", 0) == 0) {
      args.heartbeatPath = a.substr(12);
    } else if (a == "--listen") {
      args.listen = true;
    } else if (a.rfind("--listen=", 0) == 0) {
      args.listen = true;
      const std::string port = a.substr(9);
      char* end = nullptr;
      const unsigned long v = std::strtoul(port.c_str(), &end, 10);
      if (port.empty() || end != port.c_str() + port.size() || v > 65535ul) {
        std::fprintf(stderr, "%s: bad --listen port \"%s\" (0..65535)\n",
                     argv[0], port.c_str());
        std::exit(2);
      }
      args.listenPort = static_cast<std::uint16_t>(v);
    } else if (a == "--journal") {
      args.journalPath = value("--journal");
    } else if (a.rfind("--journal=", 0) == 0) {
      args.journalPath = a.substr(10);
    } else if (a == "--linger") {
      args.lingerSec = lingerSeconds(value("--linger"));
    } else if (a.rfind("--linger=", 0) == 0) {
      args.lingerSec = lingerSeconds(a.substr(9));
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// Strictly parses positional `idx` as a decimal count, or returns
/// `fallback` when absent. A malformed value (stray flag, typo, trailing
/// garbage) is a loud usage error — never a silent zero the way
/// std::atoi-based parsing misread it.
inline std::uint32_t positionalCount(const BenchArgs& args, std::size_t idx,
                                     std::uint32_t fallback,
                                     const char* what) {
  if (idx >= args.positional.size()) return fallback;
  const std::string& s = args.positional[idx];
  char* end = nullptr;
  const unsigned long v = std::strtoul(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size() || v > 0xFFFFFFFFul) {
    std::fprintf(stderr, "bad %s argument: \"%s\" (expected a count)\n", what,
                 s.c_str());
    std::exit(2);
  }
  return static_cast<std::uint32_t>(v);
}

/// One bench run's observability scope: owns the RunReport, enables the
/// Chrome trace collector when requested, owns the cost-attribution
/// profiler + per-phase hardware counters under --profile, the heartbeat
/// (the run's live status) under --heartbeat or --listen and the telemetry
/// server that renders it under --listen, and on destruction snapshots the
/// global metrics registry (and the profile) into the report and writes
/// report/trace files. IO failures are printed to stderr, never thrown (a
/// bench's results on stdout should survive an unwritable report path).
class RunScope {
 public:
  RunScope(std::string name, BenchArgs args)
      : args_(std::move(args)), report_(name) {
    if (!args_.tracePath.empty()) {
      obs::TraceCollector::global().clear();
      obs::TraceCollector::global().enable();
    }
    if (args_.profile) {
      profiler_ = std::make_unique<obs::Profiler>();
      hw_ = std::make_unique<obs::HwCounters>();
      hw_->start();
    }
    // --listen implies a heartbeat (memory-only unless --heartbeat also
    // gave a path): the server's /status and /progress render it.
    if (!args_.heartbeatPath.empty() || args_.listen) {
      heartbeat_ =
          std::make_unique<obs::Heartbeat>(args_.heartbeatPath, name);
    }
    if (args_.listen) {
      obs::TelemetryServerOptions opt;
      opt.port = args_.listenPort;
      opt.runName = name;
      opt.heartbeat = heartbeat_.get();
      server_ = std::make_unique<obs::TelemetryServer>(opt);
      try {
        server_->start();
        std::fprintf(stderr,
                     "telemetry: listening on http://127.0.0.1:%u/ "
                     "(/metrics /healthz /status /events /progress)\n",
                     static_cast<unsigned>(server_->port()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "telemetry server failed: %s\n", e.what());
        server_.reset();
      }
    }
    obs::EventJournal::global().info("run-start", {{"name", name}});
  }

  ~RunScope() {
    if (hw_) {
      profiler_->addPhaseCounters("run", hw_->stop());
    }
    if (profiler_) {
      try {
        report_.setProfile(profiler_->toJson());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "profile block failed: %s\n", e.what());
      }
    }
    report_.setMetrics(obs::MetricsRegistry::global().snapshot());
    if (heartbeat_) heartbeat_->finish("completed");
    obs::EventJournal::global().info("run-finish",
                                     {{"name", report_.name()}});
    if (!args_.journalPath.empty()) {
      try {
        obs::EventJournal::global().flushTo(args_.journalPath);
        std::fprintf(stderr, "event journal: %s\n", args_.journalPath.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "event journal failed: %s\n", e.what());
      }
    }
    if (!args_.jsonPath.empty()) {
      try {
        report_.writeTo(args_.jsonPath);
        std::fprintf(stderr, "run report: %s\n", args_.jsonPath.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run report failed: %s\n", e.what());
      }
    }
    if (!args_.ledgerPath.empty()) {
      try {
        report_.appendTo(args_.ledgerPath);
        std::fprintf(stderr, "run ledger: %s\n", args_.ledgerPath.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run ledger failed: %s\n", e.what());
      }
    }
    if (!args_.tracePath.empty()) {
      try {
        obs::TraceCollector::global().writeTo(args_.tracePath);
        std::fprintf(stderr, "chrome trace: %s\n", args_.tracePath.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "chrome trace failed: %s\n", e.what());
      }
      obs::TraceCollector::global().disable();
    }
    if (server_ && args_.lingerSec > 0) {
      // Keep serving the final state (/metrics, /status "completed",
      // /events) so an external scraper can collect it after a short run.
      std::fprintf(stderr, "telemetry: lingering %.1fs on port %u\n",
                   args_.lingerSec, static_cast<unsigned>(server_->port()));
      std::this_thread::sleep_for(
          std::chrono::duration<double>(args_.lingerSec));
    }
    // Graceful stop (it sends the final SSE frame) before the heartbeat
    // goes away.
    server_.reset();
  }

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  obs::RunReport& report() { return report_; }
  const BenchArgs& args() const { return args_; }

  /// The embedded telemetry server under --listen (started, ephemeral or
  /// fixed port via port()), nullptr otherwise.
  obs::TelemetryServer* telemetry() { return server_.get(); }

  /// The run's live status, rendered by the heartbeat file, /status and
  /// /progress (present under --heartbeat and --listen), nullptr otherwise.
  obs::Heartbeat* heartbeat() { return heartbeat_.get(); }

  /// The cost-attribution profiler under --profile, nullptr otherwise.
  /// Benches hand it to SboxExperiment::attachProfiler (or an engine's
  /// attachProfiler directly); the scope owns it and folds its toJson()
  /// into the report's "profile" block on destruction.
  obs::Profiler* profiler() { return profiler_.get(); }

  /// Progress sink for AcquisitionConfig/FaultCampaignConfig: a live
  /// stderr line under --progress, empty otherwise; with --heartbeat or
  /// --listen the sink additionally beats the heartbeat (its file writes
  /// are rate-limited, so chaining is cheap).
  obs::ProgressFn progressSink() {
    obs::ProgressFn inner =
        args_.progress ? obs::stderrProgressLine() : obs::ProgressFn();
    if (!heartbeat_) return inner;
    obs::Heartbeat* hb = heartbeat_.get();
    return [inner, hb](const obs::ProgressUpdate& u) {
      hb->beat(std::string(u.label), u.done, u.total, u.ratePerSec, u.etaSec);
      return inner ? inner(u) : true;
    };
  }

 private:
  BenchArgs args_;
  obs::RunReport report_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::unique_ptr<obs::HwCounters> hw_;
  std::unique_ptr<obs::Heartbeat> heartbeat_;
  std::unique_ptr<obs::TelemetryServer> server_;
};

/// Order-sensitive FNV-1a digest over the exact bit patterns of a double
/// sequence — the determinism digest reported by benches (bit-identical
/// traces <=> equal digest strings). The implementation moved to
/// jobs/trace_digest.h so the checkpoint/resume layer shares the exact
/// folding order the BENCH_baseline.json digests pin down.
using DigestAccumulator = ::lpa::jobs::DigestAccumulator;

}  // namespace lpa::bench
