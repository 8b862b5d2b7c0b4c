#pragma once
// Embedded HTTP/1.1 telemetry server — the live window into a running
// campaign (DESIGN.md §15). Dependency-free POSIX sockets, loopback by
// default, one accept thread plus two handler threads, and an SSE
// broadcaster thread. Opt-in (benches: `--listen[=port]`, bench_util.h)
// and zero-perturbation: every handler only *reads* — a metrics snapshot
// (relaxed atomics), the heartbeat's document, the event-journal tail —
// and no simulation code path ever observes the server, so the
// determinism digests are bit-identical with the server on or off while
// scrapers hammer it (tests/test_telemetry.cpp, CI obs-smoke job).
//
// ## Endpoints
//
//   GET /metrics   Prometheus text exposition of the attached
//                  MetricsRegistry (obs/exposition.h)
//   GET /healthz   liveness JSON: {"status":"ok","name",...,"pid",
//                  "uptime_sec","git"} (git = build-time describe)
//   GET /status    the attached Heartbeat's document (lpa-heartbeat/2,
//                  obs/heartbeat.h), rendered per request; 503 until the
//                  first beat
//   GET /events    tail of the event journal as lpa-event-journal/1
//                  JSONL; `?n=<count>` bounds the tail (default 256)
//   GET /progress  Server-Sent Events stream ("data: {json}\n\n") whose
//                  every frame is that same heartbeat document: sent when
//                  the heartbeat changed (polled every 100 ms), re-sent
//                  every 2 s as a keepalive, sent at once to a client
//                  that joins late, and sent once more by stop(); a slow
//                  or gone client is dropped, never waited on
//
// Anything else is 404; non-GET is 405. Responses close the connection
// (Connection: close) — scrapers poll, they do not pipeline.
//
// ## Lifecycle
//
// start() binds (port 0 = kernel-assigned ephemeral port, reported by
// port() — how tests avoid collisions), spawns the threads, and returns;
// stop() closes the listener, drains the workers, sends the final
// heartbeat document to the SSE clients, disconnects them, and joins
// everything. stop() is idempotent and safe against concurrent in-flight
// requests: a handler mid-response finishes its write, a connection
// accepted during teardown is closed. The destructor calls stop().

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_journal.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"

namespace lpa::obs {

struct TelemetryServerOptions {
  /// Loopback by default: the telemetry plane is an operator tool, not a
  /// public surface. Bind wider deliberately (e.g. "0.0.0.0") if needed.
  std::string bindAddress = "127.0.0.1";
  /// 0 = ephemeral (kernel-assigned; read back via port()).
  std::uint16_t port = 0;
  /// Run name reported by /healthz.
  std::string runName = "lpa";
  /// Sources served; default to the process-wide instances.
  MetricsRegistry* registry = nullptr;  // nullptr = MetricsRegistry::global()
  EventJournal* journal = nullptr;      // nullptr = EventJournal::global()
  /// The live run status /status and /progress render. Required (the
  /// constructor throws std::invalid_argument without it); must outlive
  /// the server.
  const Heartbeat* heartbeat = nullptr;
};

class TelemetryServer {
 public:
  explicit TelemetryServer(TelemetryServerOptions opt);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds and starts serving. Throws std::runtime_error on bind/listen
  /// failure (e.g. port in use). Calling start() on a running server is an
  /// error.
  void start();

  /// Graceful shutdown; idempotent. Joins every thread before returning.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the kernel's pick when options.port was 0). Valid
  /// after start().
  std::uint16_t port() const { return boundPort_; }

  /// Connected /progress clients right now (drops are detected on the
  /// next broadcast to a dead/slow client).
  std::size_t sseClients() const;

  /// Requests handled since start (all endpoints, including 404s).
  std::uint64_t requestsServed() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void acceptLoop();
  void workerLoop();
  void broadcastLoop();
  void handleConnection(int fd);
  void broadcastLocked(const std::string& document);

  TelemetryServerOptions opt_;
  std::atomic<bool> running_{false};
  int listenFd_ = -1;
  std::uint16_t boundPort_ = 0;
  std::chrono::steady_clock::time_point started_;

  std::thread acceptThread_;
  std::vector<std::thread> workers_;
  std::thread broadcastThread_;

  // Pending-connection queue (accept thread -> workers).
  std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::vector<int> pending_;

  // Registered /progress client fds.
  mutable std::mutex sseMu_;
  std::condition_variable sseCv_;
  std::vector<int> sseFds_;

  std::atomic<std::uint64_t> requests_{0};
};

}  // namespace lpa::obs
