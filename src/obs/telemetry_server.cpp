#include "obs/telemetry_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/run_report.h"

namespace lpa::obs {

namespace {

/// Shedding bound for the pending-connection queue: beyond this the accept
/// thread closes new connections instead of queueing unbounded work.
constexpr std::size_t kMaxPending = 64;
constexpr std::size_t kMaxRequestBytes = 8192;
/// Handler threads for the one-shot endpoints.
constexpr unsigned kWorkerThreads = 2;
/// How often the SSE broadcaster polls the heartbeat's change counter.
constexpr std::chrono::milliseconds kSsePoll{100};
/// An unchanged document is re-sent at this cadence, so proxies do not
/// time the stream out.
constexpr std::chrono::seconds kSseKeepalive{2};

/// Writes all of `data`, retrying short sends. MSG_NOSIGNAL: a peer that
/// disconnected mid-response must produce EPIPE, not kill the process.
/// Returns false on any unrecoverable error (the caller drops the fd).
bool sendAll(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

std::string httpResponse(int code, const char* reason,
                         std::string_view contentType, std::string_view body) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += contentType;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// "data: {json}\n\n" — one SSE frame per heartbeat document.
std::string sseFrame(std::string_view payload) {
  std::string out = "data: ";
  out += payload;
  out += "\n\n";
  return out;
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Parses the `n` query parameter of "/events?n=...", clamped to sane
/// bounds; `fallback` when absent or malformed.
std::size_t parseTailCount(std::string_view target, std::size_t fallback) {
  const std::size_t q = target.find('?');
  if (q == std::string_view::npos) return fallback;
  std::string_view query = target.substr(q + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    if (pair.size() > 2 && pair.substr(0, 2) == "n=") {
      std::size_t value = 0;
      bool any = false;
      for (char c : pair.substr(2)) {
        if (c < '0' || c > '9') return fallback;
        value = value * 10 + static_cast<std::size_t>(c - '0');
        any = true;
        if (value > 1000000) return 1000000;
      }
      if (any) return value == 0 ? fallback : value;
    }
  }
  return fallback;
}

}  // namespace

TelemetryServer::TelemetryServer(TelemetryServerOptions opt)
    : opt_(std::move(opt)) {
  if (opt_.heartbeat == nullptr) {
    throw std::invalid_argument("TelemetryServer: options.heartbeat is "
                                "required");
  }
  if (opt_.registry == nullptr) opt_.registry = &MetricsRegistry::global();
  if (opt_.journal == nullptr) opt_.journal = &EventJournal::global();
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    throw std::runtime_error("TelemetryServer::start: already running");
  }

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error(std::string("TelemetryServer: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.bindAddress.c_str(), &addr.sin_addr) != 1) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("TelemetryServer: bad bind address \"" +
                             opt_.bindAddress + "\"");
  }
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("TelemetryServer: bind " + opt_.bindAddress +
                             ":" + std::to_string(opt_.port) + ": " + err);
  }
  if (::listen(listenFd_, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("TelemetryServer: listen: " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    boundPort_ = ntohs(bound.sin_port);
  }

  started_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);

  acceptThread_ = std::thread([this] { acceptLoop(); });
  workers_.reserve(kWorkerThreads);
  for (unsigned i = 0; i < kWorkerThreads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
  broadcastThread_ = std::thread([this] { broadcastLoop(); });
}

void TelemetryServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // Wake the accept thread: shutdown makes a blocking accept() return.
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }

  queueCv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  {
    // Connections accepted but never picked up: close, do not serve.
    std::lock_guard<std::mutex> lock(queueMu_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }

  sseCv_.notify_all();
  if (broadcastThread_.joinable()) broadcastThread_.join();
  {
    // The final document goes out here, not on the broadcaster's next
    // tick: a run that finishes just before stop() still ends every
    // stream with its final state.
    std::lock_guard<std::mutex> lock(sseMu_);
    broadcastLocked(opt_.heartbeat->document());
    for (int fd : sseFds_) ::close(fd);
    sseFds_.clear();
  }
}

std::size_t TelemetryServer::sseClients() const {
  std::lock_guard<std::mutex> lock(sseMu_);
  return sseFds_.size();
}

void TelemetryServer::acceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // listener shut down (stop()) or a transient accept failure
      if (!running_.load(std::memory_order_acquire)) return;
      continue;
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(queueMu_);
      if (pending_.size() < kMaxPending) {
        pending_.push_back(fd);
        queued = true;
      }
    }
    if (queued) {
      queueCv_.notify_one();
    } else {
      ::close(fd);  // overload: shed instead of queueing unboundedly
    }
  }
}

void TelemetryServer::workerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queueMu_);
      queueCv_.wait(lock, [this] {
        return !pending_.empty() || !running_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.back();
      pending_.pop_back();
    }
    handleConnection(fd);
  }
}

void TelemetryServer::handleConnection(int fd) {
  // Bound how long a silent client can pin a worker.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      request.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // peer closed, timed out, or errored
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Request line: METHOD SP TARGET SP VERSION.
  const std::size_t lineEnd = request.find("\r\n");
  const std::string line =
      lineEnd == std::string::npos ? request : request.substr(0, lineEnd);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    sendAll(fd, httpResponse(400, "Bad Request", "text/plain",
                             "malformed request line\n"));
    ::close(fd);
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = target.find('?');
  const std::string path =
      query == std::string::npos ? target : target.substr(0, query);

  if (method != "GET") {
    sendAll(fd, httpResponse(405, "Method Not Allowed", "text/plain",
                             "only GET is supported\n"));
    ::close(fd);
    return;
  }

  if (path == "/metrics") {
    const std::string body = renderPrometheus(opt_.registry->snapshot());
    sendAll(fd, httpResponse(200, "OK", "text/plain; version=0.0.4", body));
  } else if (path == "/healthz") {
    Json j = Json::object();
    j["status"] = Json("ok");
    j["name"] = Json(opt_.runName);
    j["pid"] = Json(static_cast<std::int64_t>(::getpid()));
    j["uptime_sec"] = Json(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started_)
            .count());
    j["git"] = Json(RunReport::gitDescribe());
    sendAll(fd, httpResponse(200, "OK", "application/json", j.dump(-1) + "\n"));
  } else if (path == "/status") {
    const std::string body = opt_.heartbeat->document();
    if (body.empty()) {
      sendAll(fd, httpResponse(503, "Service Unavailable", "application/json",
                               "{\"status\":\"no-heartbeat\"}\n"));
    } else {
      sendAll(fd, httpResponse(200, "OK", "application/json", body + "\n"));
    }
  } else if (path == "/events") {
    const std::size_t n = parseTailCount(target, 256);
    sendAll(fd, httpResponse(200, "OK", "application/x-ndjson",
                             opt_.journal->toJsonl(n)));
  } else if (path == "/progress") {
    // SSE: headers now, frames from the broadcaster. The fd changes hands
    // here — the broadcaster owns (and eventually closes) it.
    if (!sendAll(fd,
                 "HTTP/1.1 200 OK\r\n"
                 "Content-Type: text/event-stream\r\n"
                 "Cache-Control: no-cache\r\n"
                 "Connection: keep-alive\r\n\r\n"
                 ": connected\n\n")) {
      ::close(fd);
      return;
    }
    // Late joiners get the current state immediately (blocking send: the
    // client just connected, its socket buffer is empty). Rendered under
    // sseMu_, like every broadcast, so a client's frames stay in order.
    std::lock_guard<std::mutex> lock(sseMu_);
    const std::string document = opt_.heartbeat->document();
    if (!document.empty() && !sendAll(fd, sseFrame(document))) {
      ::close(fd);
      return;
    }
    // From here on sends must never block the broadcaster.
    setNonBlocking(fd);
    sseFds_.push_back(fd);
    return;  // deliberately not closed
  } else {
    sendAll(fd,
            httpResponse(404, "Not Found", "text/plain",
                         "unknown path; try /metrics /healthz /status "
                         "/events /progress\n"));
  }
  ::close(fd);
}

void TelemetryServer::broadcastLocked(const std::string& document) {
  if (document.empty()) return;
  // A client whose socket buffer is full (EAGAIN) or gone (EPIPE/...) is
  // dropped on the spot — a slow watcher must never hold the broadcaster.
  const std::string frame = sseFrame(document);
  std::vector<int> alive;
  alive.reserve(sseFds_.size());
  for (int fd : sseFds_) {
    const ssize_t n =
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n == static_cast<ssize_t>(frame.size())) {
      alive.push_back(fd);
    } else {
      ::close(fd);  // slow (partial/EAGAIN) or disconnected
    }
  }
  sseFds_.swap(alive);
}

void TelemetryServer::broadcastLoop() {
  using clock = std::chrono::steady_clock;
  std::uint64_t sent = 0;  // heartbeat change count last broadcast
  auto lastSend = clock::now();
  std::unique_lock<std::mutex> lock(sseMu_);
  while (true) {
    sseCv_.wait_for(lock, kSsePoll, [this] {
      return !running_.load(std::memory_order_acquire);
    });
    if (!running_.load(std::memory_order_acquire)) return;
    if (sseFds_.empty()) continue;
    const std::uint64_t changes = opt_.heartbeat->changes();
    if (changes == sent && clock::now() - lastSend < kSseKeepalive) continue;
    sent = changes;  // read before rendering: a later change re-sends
    lastSend = clock::now();
    broadcastLocked(opt_.heartbeat->document());
  }
}

}  // namespace lpa::obs
