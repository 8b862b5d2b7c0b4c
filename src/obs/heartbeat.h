#pragma once
// Live run status: the one owner of a run's latest progress. Every live
// surface renders the same state — the telemetry server's `GET /status`
// and `GET /progress` SSE frames call document() (obs/telemetry_server.h),
// and the optional heartbeat file is a rate-limited rendering of it,
// atomically replaced (write temp + fsync + rename via obs/fsio.h) so
// `watch cat` or a crash post-mortem sees one whole document. An empty
// path means memory-only: no file IO at all.
//
// Schema "lpa-heartbeat/2" (the only version any reader accepts):
//
//   {
//     "schema": "lpa-heartbeat/2",
//     "name": "<run name>",
//     "pid": <number>,
//     "timestamp_unix": <seconds, at rendering>,
//     "status": "running" | "completed" | "failed" | ...,
//     "phase": "<current progress label>",
//     "done": <number>, "total": <number>,
//     "rate_per_sec": <number>, "eta_sec": <number, -1 unknown>,
//     "elapsed_sec": <seconds since the run started; frozen at finish>,
//     "stop_reason": "<why a finished run stopped>",   // "" while running
//     "lineage_id": "<resume lineage>"                 // "" fresh run
//   }
//
// stop_reason carries jobs::StopCause spellings ("completed", "deadline",
// "aborted", ...) so a watcher sees *why* a run stopped; lineage_id
// carries the checkpoint's resume lineage so every heartbeat of one
// logical campaign is attributable across process restarts.
//
// Beats ride the existing ProgressFn plumbing (bench_util.h chains one in
// under --heartbeat / --listen), so the rate/ETA shown are the
// EWMA-smoothed numbers the stderr progress line prints. IO failures are
// reported to stderr once and otherwise swallowed — a heartbeat must never
// kill the run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace lpa::obs {

class Heartbeat {
 public:
  /// `minIntervalSec` rate-limits the file writes of beat(); finish()
  /// always writes. An empty `path` means memory-only (no file).
  Heartbeat(std::string path, std::string runName,
            double minIntervalSec = 1.0);

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  static const char* schemaId() { return "lpa-heartbeat/2"; }

  /// Records a "running" state (thread-safe). The state always updates;
  /// only the file write is rate-limited.
  void beat(const std::string& phase, std::uint64_t done, std::uint64_t total,
            double ratePerSec, double etaSec);

  /// Records a final, non-empty status ("completed", "failed", ...)
  /// carrying the last observed phase/progress, and writes the file. First
  /// call wins: later finishes (e.g. the generic scope-exit one) are no-ops,
  /// so a specific final status is never overwritten, and no beat() follows
  /// it.
  void finish(const std::string& status);

  /// Why a finished run stopped ("completed", "deadline", "aborted",
  /// "sim-diverged", ...); typically set just before finish(). Thread-safe.
  void setStopReason(const std::string& reason);

  /// Resume-lineage identifier (the checkpoint lineage this run continues,
  /// "" for a fresh run). Thread-safe.
  void setLineageId(const std::string& lineage);

  /// The current lpa-heartbeat/2 document (one compact JSON line, no
  /// trailing newline); "" before the first beat() or finish(). Copies
  /// the state under the lock and renders outside it, so a reader never
  /// holds the lock a progress sink waits on.
  std::string document() const;

  /// Bumped by every beat, finish, setStopReason and setLineageId that
  /// takes effect (a beat after finish, or a second finish, does not);
  /// readers poll it to learn that document() moved.
  std::uint64_t changes() const {
    return changes_.load(std::memory_order_acquire);
  }

 private:
  struct State {
    std::string status;
    std::string phase;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    double ratePerSec = 0.0;
    double etaSec = -1.0;
    double elapsedSec = 0.0;
    std::string stopReason;
    std::string lineageId;
  };

  double sinceStart() const;
  State snapshotLocked() const;
  std::string render(const State& s) const;
  void writeFileLocked();

  const std::string path_;
  const std::string name_;
  const double minIntervalSec_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  State state_;                  // under mu_; status "" until a beat/finish
  bool finished_ = false;        // under mu_: finish() ran (first wins)
  bool warned_ = false;          // under mu_: stderr-warn on first IO failure
  double lastWriteSec_ = -1e18;  // under mu_
  std::atomic<std::uint64_t> changes_{0};
};

}  // namespace lpa::obs
