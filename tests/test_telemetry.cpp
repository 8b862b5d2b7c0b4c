// Tests for the live telemetry plane (DESIGN.md §15): Prometheus
// exposition formatting and the metric-name lint, the bounded event
// journal's non-blocking overflow contract, the embedded HTTP server
// (ephemeral-port bind, every endpoint, SSE multi-client delivery and
// dead-client disconnect, shutdown races), the one-owner rule — /status,
// SSE frames and the heartbeat file render one Heartbeat — the
// heartbeat/2 schema, and — the load-bearing claim — bit-identical
// acquisition results while scrapers hammer a live /metrics endpoint.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "fault/campaign.h"
#include "fault/fault_spec.h"
#include "obs/event_journal.h"
#include "obs/exposition.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry_server.h"
#include "sboxes/masked_sbox.h"
#include "trace/acquisition.h"

namespace lpa {
namespace {

// ---------------------------------------------------------------------------
// Minimal loopback HTTP client (blocking, Connection: close).

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Full raw response (headers + body) of one GET, "" on failure.
std::string httpGet(std::uint16_t port, const std::string& target,
                    const std::string& method = "GET") {
  const int fd = connectLoopback(port);
  if (fd < 0) return "";
  const std::string req = method + " " + target +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Connection: close\r\n\r\n";
  std::string out;
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(req.size())) {
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return out;
}

std::string bodyOf(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

/// Reads from an SSE socket until `frames` "data: ..." payloads arrived or
/// `timeoutSec` elapsed; returns the payloads (JSON text after "data: ").
std::vector<std::string> readSseFrames(int fd, std::size_t frames,
                                       double timeoutSec) {
  timeval tv{};
  tv.tv_sec = 0;
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string buf;
  std::vector<std::string> out;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeoutSec);
  while (out.size() < frames &&
         std::chrono::steady_clock::now() < deadline) {
    char chunk[2048];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
    if (n == 0) break;  // server closed
    std::size_t pos;
    while (out.size() < frames &&
           (pos = buf.find("\n\n")) != std::string::npos) {
      const std::string event = buf.substr(0, pos);
      buf.erase(0, pos + 2);
      if (event.rfind("data: ", 0) == 0) out.push_back(event.substr(6));
    }
  }
  return out;
}

/// Opens a /progress stream (the request is sent; the server answers with
/// the current heartbeat document, if any, then registers the client).
int openSse(std::uint16_t port) {
  const int fd = connectLoopback(port);
  EXPECT_GE(fd, 0);
  const std::string req = "GET /progress HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  return fd;
}

/// Waits (bounded) until the broadcaster has `n` registered clients.
void waitForSseClients(const obs::TelemetryServer& server, std::size_t n) {
  for (int spins = 0; server.sseClients() < n && spins < 100; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.sseClients(), n);
}

// ---------------------------------------------------------------------------
// Exposition format.

TEST(Exposition, NameLintAndSanitization) {
  EXPECT_EQ(obs::lintMetricName("sim.batch.runs"), "");
  EXPECT_EQ(obs::lintMetricName("jobs.spot_checks"), "");
  EXPECT_EQ(obs::lintMetricName("a-b:c_d.e"), "");
  EXPECT_NE(obs::lintMetricName(""), "");
  EXPECT_NE(obs::lintMetricName("has space"), "");
  EXPECT_NE(obs::lintMetricName("7starts.with.digit"), "");
  EXPECT_NE(obs::lintMetricName("unicode\xC3\xA9"), "");

  EXPECT_EQ(obs::sanitizeMetricName("sim.batch-x.runs"), "sim_batch_x_runs");
  EXPECT_TRUE(obs::isValidExpositionName("lpa_sim_batch_runs"));
  EXPECT_TRUE(obs::isValidExpositionName("_x:y"));
  EXPECT_FALSE(obs::isValidExpositionName("9lives"));
  EXPECT_FALSE(obs::isValidExpositionName("a.b"));
}

TEST(Exposition, GoldenCounterGaugeDocument) {
  obs::MetricsRegistry reg;
  reg.counter("acquire.traces_total").add(3);
  reg.gauge("jobs.depth").set(2.5);
  const std::string doc = obs::renderPrometheus(reg.snapshot());
  EXPECT_EQ(doc,
            "# TYPE lpa_acquire_traces_total counter\n"
            "lpa_acquire_traces_total 3\n"
            "# TYPE lpa_jobs_depth gauge\n"
            "lpa_jobs_depth 2.5\n");
}

TEST(Exposition, HistogramRendersCumulativeBucketsAndQuantiles) {
  obs::MetricsRegistry reg;
  obs::Histogram h = reg.histogram("acquire.ms");
  h.record(0.75);
  h.record(1.5);
  h.record(1.5);
  h.record(100.0);
  const std::string doc = obs::renderPrometheus(reg.snapshot());
  EXPECT_NE(doc.find("# TYPE lpa_acquire_ms histogram\n"), std::string::npos);
  // Buckets are cumulative: 0.75 -> le=1 (1), 1.5 x2 -> le=2 (3),
  // 100 -> le=128 (4); the +Inf closer equals _count.
  EXPECT_NE(doc.find("lpa_acquire_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_bucket{le=\"2\"} 3\n"),
            std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_bucket{le=\"128\"} 4\n"),
            std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_sum 103.75\n"), std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_count 4\n"), std::string::npos);
  EXPECT_NE(doc.find("# TYPE lpa_acquire_ms_p50 gauge\n"), std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_p95 "), std::string::npos);
  EXPECT_NE(doc.find("lpa_acquire_ms_p99 "), std::string::npos);
  // Deterministic: identical snapshot -> byte-identical document.
  EXPECT_EQ(doc, obs::renderPrometheus(reg.snapshot()));
}

#ifndef NDEBUG
// Debug builds must reject unrenderable names at registration, so a bad
// name is a tier-1 failure rather than a silently unscrapable endpoint.
TEST(Exposition, DebugRegistrationRejectsBadNames) {
  obs::MetricsRegistry reg;
  EXPECT_THROW(reg.counter("bad name"), std::invalid_argument);
  EXPECT_THROW(reg.gauge(""), std::invalid_argument);
  EXPECT_THROW(reg.histogram("7bad"), std::invalid_argument);
  EXPECT_NO_THROW(reg.counter("good.name"));
}
#endif

// Every metric the engines, the profiler, and the fault campaign register
// must pass the lint — i.e. survive Prometheus name-mapping unambiguously.
TEST(Exposition, AllEngineMetricNamesLintClean) {
  // Touch every registration site: both acquisition engines, the
  // profiler, and a tiny fault campaign.
  for (SimEngine engine : {SimEngine::Reference, SimEngine::Auto}) {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = 2;
    cfg.acquisition.engine = engine;
    SboxExperiment exp(SboxStyle::Glut, cfg);
    exp.acquireAt(0.0);
  }
  {
    obs::Profiler profiler;
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = 2;
    SboxExperiment exp(SboxStyle::Glut, cfg);
    exp.attachProfiler(&profiler);
    exp.acquireAt(0.0);
  }
  {
    const auto sbox = makeSbox(SboxStyle::Glut);
    const DelayModel dm(sbox->netlist());
    const PowerModel power(sbox->netlist());
    FaultCampaignConfig cfg;
    cfg.tracesPerClass = 2;
    cfg.analyzeLeakage = false;
    const std::vector<NetId> masks = maskWireNets(*sbox);
    ASSERT_FALSE(masks.empty());
    runFaultCampaign(*sbox, dm, power, stuckAtFaults({masks.front()}), cfg);
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_FALSE(snap.counters.empty());
  const auto lintAll = [](const auto& families) {
    for (const auto& [name, value] : families) {
      EXPECT_EQ(obs::lintMetricName(name), "") << "metric \"" << name << "\"";
    }
  };
  lintAll(snap.counters);
  lintAll(snap.gauges);
  lintAll(snap.histograms);
}

// ---------------------------------------------------------------------------
// Event journal.

TEST(EventJournal, RingOverflowDropsOldestAndCounts) {
  obs::EventJournal journal(8);
  for (int i = 0; i < 20; ++i) {
    journal.info("tick", {{"i", std::to_string(i)}});
  }
  EXPECT_EQ(journal.emitted(), 20u);
  EXPECT_EQ(journal.dropped(), 12u);
  EXPECT_EQ(journal.capacity(), 8u);

  const std::vector<obs::JournalEvent> tail = journal.tail(100);
  ASSERT_EQ(tail.size(), 8u);
  for (std::size_t k = 0; k < tail.size(); ++k) {
    EXPECT_EQ(tail[k].seq, 12 + k);  // oldest-first, newest window
    EXPECT_EQ(tail[k].kind, "tick");
  }
  EXPECT_EQ(journal.tail(3).size(), 3u);
  EXPECT_EQ(journal.tail(3).front().seq, 17u);
}

TEST(EventJournal, ConcurrentEmittersNeverBlockAndKeepSeqMonotone) {
  obs::EventJournal journal(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::atomic<bool> stopReader{false};
  std::thread reader([&] {
    while (!stopReader.load()) {
      const auto tail = journal.tail(64);
      for (std::size_t k = 1; k < tail.size(); ++k) {
        ASSERT_LT(tail[k - 1].seq, tail[k].seq);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.emit(obs::EventLevel::Info,
                     std::string("w").append(std::to_string(t)),
                     {{"i", std::to_string(i)}});
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stopReader.store(true);
  reader.join();
  EXPECT_EQ(journal.emitted(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(journal.tail(64).size(), 64u);
}

TEST(EventJournal, JsonlLinesAreSelfDescribing) {
  obs::EventJournal journal(16);
  journal.warn("group-retry", {{"group", "3"}, {"error", "boom \"quoted\""}});
  journal.error("engine-quarantine", {{"reason", "sim-diverged"}});
  const std::string jsonl = journal.toJsonl(16);
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = jsonl.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(jsonl.substr(start, nl - start));
  }
  ASSERT_EQ(lines.size(), 2u);
  const obs::Json first = obs::Json::parse(lines[0]);
  EXPECT_EQ(first.find("schema")->asString(), "lpa-event-journal/1");
  EXPECT_EQ(first.find("level")->asString(), "warn");
  EXPECT_EQ(first.find("kind")->asString(), "group-retry");
  EXPECT_EQ(first.find("seq")->asNumber(), 0.0);
  EXPECT_GE(first.find("t_mono_sec")->asNumber(), 0.0);
  EXPECT_EQ(first.find("fields")->find("error")->asString(),
            "boom \"quoted\"");
  const obs::Json second = obs::Json::parse(lines[1]);
  EXPECT_EQ(second.find("level")->asString(), "error");
  EXPECT_EQ(second.find("fields")->find("reason")->asString(),
            "sim-diverged");
}

// ---------------------------------------------------------------------------
// Telemetry server.

TEST(TelemetryServer, EphemeralBindServesEveryEndpoint) {
  obs::MetricsRegistry reg;
  reg.counter("sim.runs").add(7);
  obs::EventJournal journal(16);
  journal.info("acquire-start", {{"traces", "64"}});

  obs::Heartbeat hb("", "unit-test", /*minIntervalSec=*/0.0);  // memory-only

  obs::TelemetryServerOptions opt;
  opt.registry = &reg;
  opt.journal = &journal;
  opt.runName = "unit-test";
  opt.heartbeat = &hb;
  obs::TelemetryServer server(opt);
  server.start();
  ASSERT_GT(server.port(), 0);

  const std::string metrics = httpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("lpa_sim_runs 7\n"), std::string::npos);

  const obs::Json health =
      obs::Json::parse(bodyOf(httpGet(server.port(), "/healthz")));
  EXPECT_EQ(health.find("status")->asString(), "ok");
  EXPECT_EQ(health.find("name")->asString(), "unit-test");
  EXPECT_GT(health.find("pid")->asNumber(), 0.0);
  EXPECT_GE(health.find("uptime_sec")->asNumber(), 0.0);
  EXPECT_FALSE(health.find("git")->asString().empty());

  // /status is 503 until the heartbeat's first beat, then renders it.
  EXPECT_NE(httpGet(server.port(), "/status").find("503"),
            std::string::npos);
  hb.beat("acquire", 1, 4, 1.0, 3.0);
  const obs::Json status =
      obs::Json::parse(bodyOf(httpGet(server.port(), "/status")));
  EXPECT_EQ(status.find("schema")->asString(), "lpa-heartbeat/2");
  EXPECT_EQ(status.find("status")->asString(), "running");

  const std::string events = bodyOf(httpGet(server.port(), "/events?n=10"));
  const obs::Json ev = obs::Json::parse(events.substr(0, events.find('\n')));
  EXPECT_EQ(ev.find("schema")->asString(), "lpa-event-journal/1");
  EXPECT_EQ(ev.find("kind")->asString(), "acquire-start");

  EXPECT_NE(httpGet(server.port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(httpGet(server.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  EXPECT_GE(server.requestsServed(), 6u);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServer, RequiresAHeartbeat) {
  EXPECT_THROW(obs::TelemetryServer{obs::TelemetryServerOptions{}},
               std::invalid_argument);
}

TEST(TelemetryServer, TwoServersBindDistinctEphemeralPorts) {
  obs::Heartbeat hb("", "two-servers");  // memory-only
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  obs::TelemetryServer a(opt);
  obs::TelemetryServer b(opt);
  a.start();
  b.start();
  EXPECT_NE(a.port(), b.port());
  EXPECT_NE(httpGet(a.port(), "/healthz").find("200 OK"), std::string::npos);
  EXPECT_NE(httpGet(b.port(), "/healthz").find("200 OK"), std::string::npos);
}

// The acceptance-criterion claim, in-process: acquisition results are
// bit-identical while scraper threads hammer a live /metrics endpoint.
TEST(TelemetryServer, ConcurrentScrapingKeepsAcquisitionBitIdentical) {
  const auto acquireTraces = [] {
    ExperimentConfig cfg;
    cfg.acquisition.tracesPerClass = 2;
    cfg.acquisition.numThreads = 2;
    SboxExperiment exp(SboxStyle::Glut, cfg);
    return exp.acquireAt(0.0);
  };
  const TraceSet baseline = acquireTraces();

  obs::Heartbeat hb("", "scraped");  // memory-only
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  obs::TelemetryServer server(opt);  // global registry: live, mutating
  server.start();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> scrapes{0};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 2; ++i) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        if (!httpGet(server.port(), "/metrics").empty()) {
          scrapes.fetch_add(1);
        }
      }
    });
  }
  // Start the acquisition only once a scrape has completed, so the
  // scrapers are demonstrably live while it runs (a ~3 ms acquisition
  // would otherwise race the first scrape under CPU load).
  const auto scrapeDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrapes.load() == 0 &&
         std::chrono::steady_clock::now() < scrapeDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool scraping = scrapes.load() > 0;
  const TraceSet scraped = acquireTraces();
  stop.store(true);
  for (std::thread& s : scrapers) s.join();
  ASSERT_TRUE(scraping) << "no scrape completed within 10 s";

  ASSERT_EQ(baseline.size(), scraped.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline.label(i), scraped.label(i)) << "trace " << i;
    for (std::uint32_t s = 0; s < baseline.numSamples(); ++s) {
      ASSERT_EQ(baseline.trace(i)[s], scraped.trace(i)[s])
          << "trace " << i << " sample " << s;
    }
  }
}

TEST(TelemetryServer, SseDeliversMonotoneProgressToTwoClients) {
  obs::Heartbeat hb("", "sse-test", /*minIntervalSec=*/0.0);
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  obs::TelemetryServer server(opt);
  server.start();

  const int c1 = openSse(server.port());
  const int c2 = openSse(server.port());
  waitForSseClients(server, 2);

  std::atomic<bool> stopBeating{false};
  std::thread beater([&] {
    // Beat a rising sequence until both readers are done; the broadcaster
    // sends the latest document per poll, so readers see a (sub)sequence
    // — monotone.
    std::uint64_t done = 1;
    while (!stopBeating.load()) {
      hb.beat("test", done, 1000, 1.0, static_cast<double>(1000 - done));
      if (done < 999) ++done;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto checkMonotone = [](const std::vector<std::string>& frames) {
    ASSERT_GE(frames.size(), 2u);
    double prev = -1.0;
    for (const std::string& f : frames) {
      const obs::Json j = obs::Json::parse(f);
      const double done = j.find("done")->asNumber();
      EXPECT_EQ(j.find("total")->asNumber(), 1000.0);
      EXPECT_GE(done, prev) << "progress went backwards";
      prev = done;
    }
  };
  checkMonotone(readSseFrames(c1, 5, 5.0));
  checkMonotone(readSseFrames(c2, 5, 5.0));
  stopBeating.store(true);
  beater.join();
  ::close(c1);
  ::close(c2);
  server.stop();
}

TEST(TelemetryServer, DeadSseClientIsDroppedNotWaitedOn) {
  obs::Heartbeat hb("", "dead-client", /*minIntervalSec=*/0.0);
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  obs::TelemetryServer server(opt);
  server.start();

  const int fd = openSse(server.port());
  waitForSseClients(server, 1);

  // Kill the client; the broadcaster must shed it on a subsequent send
  // (RST -> EPIPE) without ever blocking the beating thread.
  ::close(fd);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::uint64_t done = 0;
  while (server.sseClients() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    hb.beat("test", ++done, 1u << 20, 1.0, -1.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.sseClients(), 0u);
  server.stop();
}

// The one-owner rule: for one heartbeat state, /status, a new SSE client's
// first frame and the heartbeat file are the same document, apart from
// the clock fields each rendering stamps.
TEST(TelemetryServer, StatusSseAndFileRenderOneHeartbeat) {
  const std::string path = ::testing::TempDir() + "lpa_one_owner_hb.json";
  std::remove(path.c_str());
  obs::Heartbeat hb(path, "one-owner", /*minIntervalSec=*/0.0);
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  obs::TelemetryServer server(opt);
  server.start();

  const auto withoutClock = [](const obs::Json& j) {
    obs::Json out = obs::Json::object();
    for (const auto& [k, v] : j.items()) {
      if (k != "timestamp_unix" && k != "elapsed_sec") out[k] = v;
    }
    return out;
  };
  const auto readFile = [&] {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return obs::Json::parse(ss.str());
  };
  const auto expectOneDocument = [&](const std::string& status) {
    const obs::Json file = withoutClock(readFile());
    EXPECT_EQ(file.find("status")->asString(), status);
    const obs::Json served = withoutClock(
        obs::Json::parse(bodyOf(httpGet(server.port(), "/status"))));
    const int fd = openSse(server.port());
    const std::vector<std::string> frames = readSseFrames(fd, 1, 5.0);
    ::close(fd);
    ASSERT_EQ(frames.size(), 1u) << status;
    EXPECT_EQ(served, file) << status;
    EXPECT_EQ(withoutClock(obs::Json::parse(frames[0])), file) << status;
  };

  hb.setLineageId("g1/2:cafe");
  hb.beat("acquire", 7, 16, 3.5, 2.5);
  expectOneDocument("running");
  hb.setStopReason("deadline");
  hb.finish("truncated");
  expectOneDocument("truncated");

  server.stop();
  std::remove(path.c_str());
}

// A run that finishes just before the server stops (well inside the
// broadcaster's 100 ms poll) still ends every stream with its final
// document: stop() sends it, so the last frame does not depend on a
// linger window.
TEST(TelemetryServer, StopDeliversTheFinalDocument) {
  obs::Heartbeat hb("", "final-frame", /*minIntervalSec=*/0.0);
  hb.beat("acquire", 500, 1000, 10.0, 50.0);
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  obs::TelemetryServer server(opt);
  server.start();

  const int fd = openSse(server.port());
  const std::vector<std::string> joined = readSseFrames(fd, 1, 5.0);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(obs::Json::parse(joined[0]).find("done")->asNumber(), 500.0);
  waitForSseClients(server, 1);

  hb.beat("acquire", 1000, 1000, 10.0, 0.0);
  hb.finish("completed");
  server.stop();
  const std::vector<std::string> rest = readSseFrames(fd, 100, 5.0);
  ::close(fd);
  ASSERT_FALSE(rest.empty()) << "no frame after finish()";
  const obs::Json last = obs::Json::parse(rest.back());
  EXPECT_EQ(last.find("status")->asString(), "completed");
  EXPECT_EQ(last.find("done")->asNumber(), 1000.0);
  EXPECT_EQ(last.find("total")->asNumber(), 1000.0);
}

TEST(TelemetryServer, HealthzSurvivesShutdownRace) {
  obs::Heartbeat hb("", "shutdown-race");  // memory-only
  obs::TelemetryServerOptions opt;
  opt.heartbeat = &hb;
  for (int round = 0; round < 3; ++round) {
    obs::TelemetryServer server(opt);
    server.start();
    const std::uint16_t port = server.port();
    std::atomic<bool> stop{false};
    std::thread hammer([&] {
      // Requests racing stop() must either succeed or fail cleanly —
      // never hang and never crash the server.
      while (!stop.load()) httpGet(port, "/healthz");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    server.stop();
    stop.store(true);
    hammer.join();
    EXPECT_FALSE(server.running());
    // After stop, connections are refused (or reset) — not served.
    EXPECT_EQ(httpGet(port, "/healthz").find("200 OK"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Heartbeat /2.

TEST(Heartbeat, SchemaV2CarriesStopReasonAndLineage) {
  obs::Heartbeat hb("", "hb-test", /*minIntervalSec=*/0.0);  // memory-only
  hb.setLineageId("g4/16:deadbeef");
  EXPECT_EQ(hb.document(), "") << "no document before the first beat";
  hb.beat("acquire", 10, 100, 5.0, 18.0);

  const obs::Json running = obs::Json::parse(hb.document());
  EXPECT_EQ(running.find("schema")->asString(), "lpa-heartbeat/2");
  EXPECT_EQ(running.find("status")->asString(), "running");
  EXPECT_EQ(running.find("phase")->asString(), "acquire");
  EXPECT_EQ(running.find("done")->asNumber(), 10.0);
  EXPECT_EQ(running.find("stop_reason")->asString(), "");
  EXPECT_EQ(running.find("lineage_id")->asString(), "g4/16:deadbeef");

  hb.setStopReason("deadline");
  hb.finish("truncated");
  const obs::Json final_ = obs::Json::parse(hb.document());
  EXPECT_EQ(final_.find("status")->asString(), "truncated");
  EXPECT_EQ(final_.find("stop_reason")->asString(), "deadline");
  EXPECT_EQ(final_.find("lineage_id")->asString(), "g4/16:deadbeef");

  const std::uint64_t changes = hb.changes();
  hb.finish("completed");  // must NOT override the first final status
  hb.beat("acquire", 11, 100, 5.0, 17.0);  // nor may a late beat
  EXPECT_EQ(hb.changes(), changes);
  const obs::Json after = obs::Json::parse(hb.document());
  EXPECT_EQ(after.find("status")->asString(), "truncated");
  EXPECT_EQ(after.find("done")->asNumber(), 10.0);
  EXPECT_EQ(after.find("elapsed_sec")->asNumber(),
            final_.find("elapsed_sec")->asNumber())
      << "a finished run's elapsed time is frozen";
}

}  // namespace
}  // namespace lpa
