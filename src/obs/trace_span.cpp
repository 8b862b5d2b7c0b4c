#include "obs/trace_span.h"

#include <cstdio>
#include <stdexcept>

namespace lpa::obs {

double TraceCollector::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t TraceCollector::thisThreadTrack() {
  static std::atomic<std::uint32_t> nextTrack{1};
  thread_local std::uint32_t track =
      nextTrack.fetch_add(1, std::memory_order_relaxed);
  return track;
}

void TraceCollector::nameThisThreadTrack(const std::string& name) {
  if (!enabled()) return;
  const std::uint32_t track = thisThreadTrack();
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [t, n] : trackNames_) {
    if (t == track) {
      n = name;
      return;
    }
  }
  trackNames_.emplace_back(track, name);
}

void TraceCollector::record(std::string name, double beginUs, double durUs) {
  const std::uint32_t track = thisThreadTrack();
  std::lock_guard<std::mutex> lk(mu_);
  events_.push_back(
      CompleteEvent{std::move(name), beginUs, durUs, track});
}

void TraceCollector::recordFlow(std::string name, double tsUs,
                                std::uint64_t id, bool start) {
  if (!enabled()) return;
  const std::uint32_t track = thisThreadTrack();
  std::lock_guard<std::mutex> lk(mu_);
  flowEvents_.push_back(FlowEvent{std::move(name), tsUs, id, start, track});
}

std::size_t TraceCollector::eventCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size() + flowEvents_.size();
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  events_.clear();
  flowEvents_.clear();
  trackNames_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

Json TraceCollector::toJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  Json doc = Json::object();
  Json events = Json::array();
  for (const auto& [track, name] : trackNames_) {
    Json m = Json::object();
    m["ph"] = "M";
    m["name"] = "thread_name";
    m["pid"] = 1;
    m["tid"] = Json(track);
    Json args = Json::object();
    args["name"] = Json(name);
    m["args"] = std::move(args);
    events.push_back(std::move(m));
  }
  for (const CompleteEvent& e : events_) {
    Json x = Json::object();
    x["ph"] = "X";
    x["name"] = Json(e.name);
    x["cat"] = "lpa";
    x["pid"] = 1;
    x["tid"] = Json(e.track);
    x["ts"] = Json(e.tsUs);
    x["dur"] = Json(e.durUs);
    events.push_back(std::move(x));
  }
  for (const FlowEvent& e : flowEvents_) {
    Json f = Json::object();
    f["ph"] = e.start ? "s" : "f";
    f["name"] = Json(e.name);
    f["cat"] = "lpa-flow";
    f["pid"] = 1;
    f["tid"] = Json(e.track);
    f["ts"] = Json(e.tsUs);
    // Ids are matched as strings by the viewers; hex keeps them compact
    // and greppable against the checkpoint lineage digests.
    char idBuf[19];
    std::snprintf(idBuf, sizeof(idBuf), "0x%016llx",
                  static_cast<unsigned long long>(e.id));
    f["id"] = Json(idBuf);
    // Bind the finish to the enclosing slice so the arrow lands on the
    // resume span instead of the next slice on the track.
    if (!e.start) f["bp"] = "e";
    events.push_back(std::move(f));
  }
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

void TraceCollector::writeTo(const std::string& path) const {
  const std::string text = toJson().dump(1);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    throw std::runtime_error("cannot open trace output file: " + path);
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = written == text.size() && std::fclose(f) == 0;
  if (!ok) {
    throw std::runtime_error("short write to trace output file: " + path);
  }
}

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  return collector;
}

Span::Span(std::string name, TraceCollector* collector) {
  if (!collector || !collector->enabled()) return;
  collector_ = collector;
  name_ = std::move(name);
  beginUs_ = collector->nowUs();
}

Span::~Span() {
  if (!collector_) return;
  const double endUs = collector_->nowUs();
  collector_->record(std::move(name_), beginUs_, endUs - beginUs_);
}

}  // namespace lpa::obs
