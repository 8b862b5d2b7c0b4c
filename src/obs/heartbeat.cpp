#include "obs/heartbeat.h"

#include <cstdio>
#include <ctime>
#include <exception>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/fsio.h"
#include "obs/json.h"

namespace lpa::obs {

Heartbeat::Heartbeat(std::string path, std::string runName,
                     double minIntervalSec)
    : path_(std::move(path)),
      name_(std::move(runName)),
      minIntervalSec_(minIntervalSec),
      start_(std::chrono::steady_clock::now()) {}

double Heartbeat::sinceStart() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void Heartbeat::beat(const std::string& phase, std::uint64_t done,
                     std::uint64_t total, double ratePerSec, double etaSec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_) return;  // no "running" beat may follow the final status
  state_.status = "running";
  state_.phase = phase;
  state_.done = done;
  state_.total = total;
  state_.ratePerSec = ratePerSec;
  state_.etaSec = etaSec;
  changes_.fetch_add(1, std::memory_order_release);
  if (path_.empty()) return;
  const double nowSec = sinceStart();
  if (nowSec - lastWriteSec_ < minIntervalSec_) return;
  lastWriteSec_ = nowSec;
  writeFileLocked();
}

void Heartbeat::finish(const std::string& status) {
  std::lock_guard<std::mutex> lock(mu_);
  // First finish wins: a caller that already published a specific final
  // status ("truncated", "failed") must not be overwritten by the generic
  // scope-exit finish("completed").
  if (finished_) return;
  finished_ = true;
  state_.status = status;
  state_.ratePerSec = 0.0;
  state_.etaSec = -1.0;
  state_.elapsedSec = sinceStart();
  // A finished run with no explicit stop reason stopped for its status.
  if (state_.stopReason.empty()) state_.stopReason = status;
  changes_.fetch_add(1, std::memory_order_release);
  // Written under the lock, so no earlier rate-limited beat can land after
  // the final document.
  if (!path_.empty()) writeFileLocked();
}

void Heartbeat::setStopReason(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.stopReason = reason;
  changes_.fetch_add(1, std::memory_order_release);
}

void Heartbeat::setLineageId(const std::string& lineage) {
  std::lock_guard<std::mutex> lock(mu_);
  state_.lineageId = lineage;
  changes_.fetch_add(1, std::memory_order_release);
}

Heartbeat::State Heartbeat::snapshotLocked() const {
  State s = state_;
  if (!finished_) s.elapsedSec = sinceStart();
  return s;
}

std::string Heartbeat::document() const {
  State s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_.status.empty()) return "";  // no beat or finish yet
    s = snapshotLocked();
  }
  return render(s);
}

std::string Heartbeat::render(const State& s) const {
  Json j = Json::object();
  j["schema"] = schemaId();
  j["name"] = Json(name_);
#if defined(__unix__) || defined(__APPLE__)
  j["pid"] = Json(static_cast<std::int64_t>(getpid()));
#else
  j["pid"] = Json(0);
#endif
  j["timestamp_unix"] = Json(static_cast<double>(std::time(nullptr)));
  j["status"] = Json(s.status);
  j["phase"] = Json(s.phase);
  j["done"] = Json(s.done);
  j["total"] = Json(s.total);
  j["rate_per_sec"] = Json(s.ratePerSec);
  j["eta_sec"] = Json(s.etaSec);
  j["elapsed_sec"] = Json(s.elapsedSec);
  j["stop_reason"] = Json(s.stopReason);
  j["lineage_id"] = Json(s.lineageId);
  return j.dump(-1);
}

void Heartbeat::writeFileLocked() {
  try {
    atomicWriteFile(path_, render(snapshotLocked()) + "\n");
  } catch (const std::exception& e) {
    if (!warned_) {
      warned_ = true;
      std::fprintf(stderr, "heartbeat write failed (%s): %s\n",
                   path_.c_str(), e.what());
    }
  }
}

}  // namespace lpa::obs
