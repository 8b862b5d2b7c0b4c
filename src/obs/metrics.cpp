#include "obs/metrics.h"

#ifndef NDEBUG
#include <stdexcept>

#include "obs/exposition.h"
#endif

namespace lpa::obs {

namespace {

// Debug builds reject instrument names the Prometheus exposition could not
// render (obs/exposition.h), so a bad name fails the tier-1 suite instead
// of silently vanishing from /metrics in production. Release builds skip
// the check — registration sits on warm paths and names are compile-time
// constants validated by the debug CI legs.
void lintRegistrationName(std::string_view name) {
#ifndef NDEBUG
  const std::string violation = lintMetricName(name);
  if (!violation.empty()) {
    throw std::invalid_argument("MetricsRegistry: " + violation);
  }
#else
  (void)name;
#endif
}

}  // namespace

void Gauge::recordMax(double v) const {
  if (!cell_) return;
  double cur = cell_->value.load(std::memory_order_relaxed);
  while (v > cur && !cell_->value.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    lintRegistrationName(name);
    counterCells_.emplace_back();
    it = counters_.emplace(std::string(name), &counterCells_.back()).first;
  }
  return Counter(it->second);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    lintRegistrationName(name);
    gaugeCells_.emplace_back();
    it = gauges_.emplace(std::string(name), &gaugeCells_.back()).first;
  }
  return Gauge(it->second);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cell] : counters_) {
    snap.counters.emplace_back(name,
                               cell->value.load(std::memory_order_relaxed));
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.emplace_back(name,
                             cell->value.load(std::memory_order_relaxed));
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::uint64_t MetricsSnapshot::counterOr(std::string_view name,
                                         std::uint64_t fallback) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return fallback;
}

Json MetricsSnapshot::toJson() const {
  Json j = Json::object();
  Json& c = (j["counters"] = Json::object());
  for (const auto& [name, v] : counters) c[name] = Json(v);
  Json& g = (j["gauges"] = Json::object());
  for (const auto& [name, v] : gauges) g[name] = Json(v);
  j["histograms"] = Json::object();
  return j;
}

}  // namespace lpa::obs
