#include "obs/profiler.h"

#include <algorithm>

namespace lpa::obs {

void Profiler::ensureNets(std::size_t numNets) {
  std::lock_guard<std::mutex> lock(mu_);
  while (nets_.size() < numNets) nets_.emplace_back();
  if (labels_.size() < numNets) labels_.resize(numNets);
  netCount_.store(nets_.size(), std::memory_order_release);
}

void Profiler::noteNetLabel(std::uint32_t net, std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  if (net >= labels_.size()) labels_.resize(net + 1);
  if (labels_[net].empty()) labels_[net] = std::move(label);
}

void Profiler::configureTimeline(double windowPs) {
  timelineWindowPs_.store(windowPs, std::memory_order_relaxed);
}

void Profiler::addNetEvents(std::uint32_t net, std::uint64_t scheduled,
                            std::uint64_t committed, std::uint64_t cancelled,
                            std::uint64_t filtered) {
  if (net >= numNets()) return;
  NetCell& c = nets_[net];
  if (scheduled) c.scheduled.fetch_add(scheduled, std::memory_order_relaxed);
  if (committed) c.committed.fetch_add(committed, std::memory_order_relaxed);
  if (cancelled) c.cancelled.fetch_add(cancelled, std::memory_order_relaxed);
  if (filtered) c.filtered.fetch_add(filtered, std::memory_order_relaxed);
}

void Profiler::addNetPulses(std::uint32_t net, std::uint64_t pulses) {
  if (net >= numNets() || pulses == 0) return;
  nets_[net].pulses.fetch_add(pulses, std::memory_order_relaxed);
}

void Profiler::addNetTimeNs(std::uint32_t net, std::uint64_t ns) {
  if (net >= numNets() || ns == 0) return;
  nets_[net].timeNs.fetch_add(ns, std::memory_order_relaxed);
}

void Profiler::noteRun(bool profiled) {
  runs_.fetch_add(1, std::memory_order_relaxed);
  if (profiled) profiledRuns_.fetch_add(1, std::memory_order_relaxed);
}

void Profiler::addOccupancy(const std::uint64_t* poppedBins,
                            const std::uint64_t* committedBins,
                            std::uint64_t waves) {
  if (waves == 0) return;
  waves_.fetch_add(waves, std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < kOccupancyBins; ++i) {
    if (poppedBins[i]) {
      poppedBins_[i].fetch_add(poppedBins[i], std::memory_order_relaxed);
    }
    if (committedBins[i]) {
      committedBins_[i].fetch_add(committedBins[i],
                                  std::memory_order_relaxed);
    }
  }
}

void Profiler::addTimeline(const std::uint64_t* pops,
                           const std::uint64_t* depthSum,
                           const std::uint64_t* depthMax) {
  for (std::uint32_t i = 0; i < kTimelineWindows; ++i) {
    if (pops[i]) {
      tlPops_[i].fetch_add(pops[i], std::memory_order_relaxed);
      tlDepthSum_[i].fetch_add(depthSum[i], std::memory_order_relaxed);
    }
    std::uint64_t prev = tlDepthMax_[i].load(std::memory_order_relaxed);
    while (depthMax[i] > prev &&
           !tlDepthMax_[i].compare_exchange_weak(prev, depthMax[i],
                                                 std::memory_order_relaxed)) {
    }
  }
}

void Profiler::recordArena(const std::string& name, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [n, b] : arenas_) {
    if (n == name) {
      b = std::max(b, bytes);
      return;
    }
  }
  arenas_.emplace_back(name, bytes);
}

void Profiler::addPhaseCounters(const std::string& phase,
                                const HwSample& sample) {
  Json entry = Json::object();
  entry["phase"] = Json(phase);
  entry["source"] = Json(sample.source);
  for (const auto& [k, v] : sample.values) entry[k] = Json(v);
  std::lock_guard<std::mutex> lock(mu_);
  hwPhases_.push_back(std::move(entry));
}

namespace {

double binMean(const std::atomic<std::uint64_t>* bins, std::uint32_t n,
               std::uint64_t waves) {
  if (waves == 0) return 0.0;
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += static_cast<double>(i) *
           static_cast<double>(bins[i].load(std::memory_order_relaxed));
  }
  return sum / static_cast<double>(waves);
}

}  // namespace

double Profiler::meanPoppedLanes() const {
  return binMean(poppedBins_, kOccupancyBins, waves());
}

double Profiler::meanCommittedLanes() const {
  return binMean(committedBins_, kOccupancyBins, waves());
}

std::uint64_t Profiler::totalScheduled() const {
  std::uint64_t sum = 0;
  const std::size_t n = numNets();
  for (std::size_t i = 0; i < n; ++i) {
    sum += nets_[i].scheduled.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t Profiler::totalPulses() const {
  std::uint64_t sum = 0;
  const std::size_t n = numNets();
  for (std::size_t i = 0; i < n; ++i) {
    sum += nets_[i].pulses.load(std::memory_order_relaxed);
  }
  return sum;
}

Json Profiler::toJson(std::size_t topK) const {
  struct Row {
    std::uint32_t net;
    std::uint64_t scheduled, committed, cancelled, filtered, pulses, timeNs;
  };
  const std::size_t n = numNets();
  std::vector<Row> rows;
  rows.reserve(n);
  Row totals{0, 0, 0, 0, 0, 0, 0};
  for (std::size_t i = 0; i < n; ++i) {
    const NetCell& c = nets_[i];
    Row r{static_cast<std::uint32_t>(i),
          c.scheduled.load(std::memory_order_relaxed),
          c.committed.load(std::memory_order_relaxed),
          c.cancelled.load(std::memory_order_relaxed),
          c.filtered.load(std::memory_order_relaxed),
          c.pulses.load(std::memory_order_relaxed),
          c.timeNs.load(std::memory_order_relaxed)};
    totals.scheduled += r.scheduled;
    totals.committed += r.committed;
    totals.cancelled += r.cancelled;
    totals.filtered += r.filtered;
    totals.pulses += r.pulses;
    totals.timeNs += r.timeNs;
    if (r.scheduled | r.committed | r.cancelled | r.filtered | r.pulses |
        r.timeNs) {
      rows.push_back(r);
    }
  }
  // Scheduled events are the cost proxy (every push is queue work whether
  // or not it commits); sampled wall-time breaks ties.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.scheduled != b.scheduled) return a.scheduled > b.scheduled;
    if (a.timeNs != b.timeNs) return a.timeNs > b.timeNs;
    return a.net < b.net;
  });

  Json j = Json::object();
  j["schema"] = schemaId();
  j["runs"] = Json(runs());
  j["profiled_runs"] = Json(profiledRuns());

  std::lock_guard<std::mutex> lock(mu_);
  Json nets = Json::object();
  nets["total_nets"] = Json(static_cast<std::uint64_t>(n));
  nets["active_nets"] = Json(static_cast<std::uint64_t>(rows.size()));
  nets["top_k"] =
      Json(static_cast<std::uint64_t>(std::min(topK, rows.size())));
  Json rowsJson = Json::array();
  for (std::size_t i = 0; i < rows.size() && i < topK; ++i) {
    const Row& r = rows[i];
    Json row = Json::object();
    row["net"] = Json(static_cast<std::uint64_t>(r.net));
    row["label"] =
        Json(r.net < labels_.size() ? labels_[r.net] : std::string());
    row["scheduled"] = Json(r.scheduled);
    row["committed"] = Json(r.committed);
    row["cancelled"] = Json(r.cancelled);
    row["filtered"] = Json(r.filtered);
    row["pulses"] = Json(r.pulses);
    row["wall_time_ns"] = Json(r.timeNs);
    rowsJson.push_back(std::move(row));
  }
  nets["rows"] = std::move(rowsJson);
  j["nets"] = std::move(nets);

  Json tot = Json::object();
  tot["scheduled"] = Json(totals.scheduled);
  tot["committed"] = Json(totals.committed);
  tot["cancelled"] = Json(totals.cancelled);
  tot["filtered"] = Json(totals.filtered);
  tot["pulses"] = Json(totals.pulses);
  tot["wall_time_ns"] = Json(totals.timeNs);
  j["totals"] = std::move(tot);

  const std::uint64_t w = waves();
  Json occ = Json::object();
  occ["waves"] = Json(w);
  // >1 means the batch engine profiled every N-th lane group of a call:
  // the counts cover the profiled_runs runs only (each of them tallied
  // exactly), not a census.
  occ["run_sample_stride"] = Json(static_cast<std::uint64_t>(
      runStride_.load(std::memory_order_relaxed)));
  occ["mean_popped"] = Json(binMean(poppedBins_, kOccupancyBins, w));
  occ["mean_committed"] = Json(binMean(committedBins_, kOccupancyBins, w));
  const auto hist = [&](const std::atomic<std::uint64_t>* bins) {
    Json a = Json::array();
    for (std::uint32_t i = 0; i < kOccupancyBins; ++i) {
      const std::uint64_t count = bins[i].load(std::memory_order_relaxed);
      if (count == 0) continue;
      Json e = Json::object();
      e["lanes"] = Json(static_cast<std::uint64_t>(i));
      e["count"] = Json(count);
      a.push_back(std::move(e));
    }
    return a;
  };
  occ["popped_hist"] = hist(poppedBins_);
  occ["committed_hist"] = hist(committedBins_);
  j["lane_occupancy"] = std::move(occ);

  const double windowPs = timelineWindowPs_.load(std::memory_order_relaxed);
  Json tl = Json::object();
  tl["window_ps"] = Json(windowPs);
  Json windows = Json::array();
  for (std::uint32_t i = 0; i < kTimelineWindows; ++i) {
    const std::uint64_t pops = tlPops_[i].load(std::memory_order_relaxed);
    if (pops == 0) continue;
    Json e = Json::object();
    e["window"] = Json(static_cast<std::uint64_t>(i));
    e["t0_ps"] = Json(static_cast<double>(i) * windowPs);
    e["pops"] = Json(pops);
    e["mean_depth"] =
        Json(static_cast<double>(
                 tlDepthSum_[i].load(std::memory_order_relaxed)) /
             static_cast<double>(pops));
    e["max_depth"] = Json(tlDepthMax_[i].load(std::memory_order_relaxed));
    windows.push_back(std::move(e));
  }
  tl["windows"] = std::move(windows);
  j["queue_depth_timeline"] = std::move(tl);

  j["hw_counters"] = hwPhases_;

  Json arenas = Json::object();
  for (const auto& [name, bytes] : arenas_) arenas[name] = Json(bytes);
  j["arenas"] = std::move(arenas);
  return j;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : nets_) {
    c.scheduled.store(0, std::memory_order_relaxed);
    c.committed.store(0, std::memory_order_relaxed);
    c.cancelled.store(0, std::memory_order_relaxed);
    c.filtered.store(0, std::memory_order_relaxed);
    c.pulses.store(0, std::memory_order_relaxed);
    c.timeNs.store(0, std::memory_order_relaxed);
  }
  runs_.store(0, std::memory_order_relaxed);
  profiledRuns_.store(0, std::memory_order_relaxed);
  waves_.store(0, std::memory_order_relaxed);
  for (auto& b : poppedBins_) b.store(0, std::memory_order_relaxed);
  for (auto& b : committedBins_) b.store(0, std::memory_order_relaxed);
  for (auto& b : tlPops_) b.store(0, std::memory_order_relaxed);
  for (auto& b : tlDepthSum_) b.store(0, std::memory_order_relaxed);
  for (auto& b : tlDepthMax_) b.store(0, std::memory_order_relaxed);
  arenas_.clear();
  hwPhases_ = Json::array();
}

}  // namespace lpa::obs
